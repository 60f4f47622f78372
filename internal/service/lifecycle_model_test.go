package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/factdb"
	"factcheck/internal/persist"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// gatedStore counts the Loads and Checkpoints a manager issues and can
// park one of them: the next call of the armed kind blocks until
// released — a Load holding the record it has read (a revival
// mid-replay), a Checkpoint before it writes (an open not yet durable).
type gatedStore struct {
	persist.Store
	loads, checkpoints atomic.Int64

	mu      sync.Mutex
	armed   string        // "load" or "checkpoint"; "" = nothing parks
	entered chan struct{} // closed once a call is parked
	release chan struct{} // the parked call returns after this closes
}

func newGatedStore() *gatedStore { return &gatedStore{Store: persist.NewMemStore()} }

// arm makes the next call of kind park until release is called; entered
// closes when a call has parked. release also disarms a gate no call
// reached.
func (g *gatedStore) arm(kind string) (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed, g.entered, g.release = kind, make(chan struct{}), make(chan struct{})
	rel := g.release
	return g.entered, sync.OnceFunc(func() {
		g.mu.Lock()
		g.armed = ""
		g.mu.Unlock()
		close(rel)
	})
}

func (g *gatedStore) park(kind string) {
	g.mu.Lock()
	if g.armed != kind {
		g.mu.Unlock()
		return
	}
	g.armed = ""
	entered, release := g.entered, g.release
	g.mu.Unlock()
	close(entered)
	<-release
}

func (g *gatedStore) Load(id string) (persist.Record, bool, error) {
	g.loads.Add(1)
	rec, ok, err := g.Store.Load(id)
	g.park("load")
	return rec, ok, err
}

func (g *gatedStore) Checkpoint(id string, rec persist.Record) error {
	g.checkpoints.Add(1)
	g.park("checkpoint")
	return g.Store.Checkpoint(id, rec)
}

func waitEntered(t *testing.T, entered <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached the store", what)
	}
}

// TestRevivalIsSingleFlight: four concurrent requests for one spilled id
// are served by one build — one Load, one restore counted, one *Session.
func TestRevivalIsSingleFlight(t *testing.T) {
	gate := newGatedStore()
	m := NewManager(Config{Workers: 2, Store: gate})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.1, 41))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 2)
	spill(t, m, 1)

	loads := gate.loads.Load()
	entered, release := gate.arm("load")
	got := make(chan *Session, 4)
	request := func() {
		s, err := m.get(context.Background(), info.ID)
		if err != nil {
			t.Errorf("request during the revival: %v", err)
		}
		got <- s
	}
	go request()
	waitEntered(t, entered, "the revival")
	for i := 0; i < 3; i++ {
		go request()
	}
	// Give the three time to find the building slot; one that is late
	// finds the live session instead — a single Load either way.
	time.Sleep(20 * time.Millisecond)
	release()
	first := <-got
	for i := 0; i < 3; i++ {
		if s := <-got; s != first {
			t.Errorf("request %d was served by another *Session", i+2)
		}
	}
	if n := gate.loads.Load() - loads; n != 1 {
		t.Errorf("%d Loads for one revival, want 1", n)
	}
	assertRestores(t, m, 1, nil)
	if n := m.Metrics(false).Stages["restore"].Count; n != 1 {
		t.Errorf("restore stage counted %d, want 1", n)
	}
}

// TestRevivalAtCapIsRefusedUnbuilt: a request for a spilled id on a
// full manager is refused at the claim — no Load, nothing built, no
// restore counted.
func TestRevivalAtCapIsRefusedUnbuilt(t *testing.T) {
	gate := newGatedStore()
	m := NewManager(Config{Workers: 1, MaxSessions: 2, Store: gate})
	defer m.Shutdown()
	a, err := m.Open(fastOpen("wiki", 0.05, 42))
	if err != nil {
		t.Fatal(err)
	}
	spill(t, m, 1)
	for seed := int64(43); seed < 45; seed++ {
		if _, err := m.Open(fastOpen("wiki", 0.05, seed)); err != nil {
			t.Fatal(err)
		}
	}
	loads := gate.loads.Load()
	if _, err := m.State(a.ID, false); !errors.Is(err, ErrFull) {
		t.Fatalf("request for a spilled id at the cap: %v, want ErrFull", err)
	}
	if n := gate.loads.Load() - loads; n != 0 {
		t.Errorf("the refused revival issued %d Loads", n)
	}
	assertRestores(t, m, 0, nil)
	if n := m.Metrics(false).Stages["restore"].Count; n != 0 {
		t.Errorf("restore stage counted %d for a session that never served", n)
	}
}

// TestOpensHoldSeats: with one seat left, the open that claimed it holds
// it while it builds — opens arriving meanwhile are refused before they
// build or checkpoint anything.
func TestOpensHoldSeats(t *testing.T) {
	gate := newGatedStore()
	m := NewManager(Config{Workers: 2, MaxSessions: 2, Store: gate})
	defer m.Shutdown()
	if _, err := m.Open(fastOpen("wiki", 0.05, 46)); err != nil {
		t.Fatal(err)
	}
	checkpoints := gate.checkpoints.Load()
	entered, release := gate.arm("checkpoint")
	const k = 4
	errs := make(chan error, k)
	open := func(seed int64) {
		_, err := m.Open(fastOpen("wiki", 0.05, seed))
		errs <- err
	}
	go open(47)
	waitEntered(t, entered, "the first open")
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); open(47 + int64(i)) }()
	}
	wg.Wait()
	release()
	succeeded := 0
	for i := 0; i < k; i++ {
		switch err := <-errs; {
		case err == nil:
			succeeded++
		case !errors.Is(err, ErrFull):
			t.Errorf("open racing for the last seat: %v, want ErrFull", err)
		}
	}
	if succeeded != 1 {
		t.Errorf("%d of %d racing opens succeeded, want 1", succeeded, k)
	}
	if n := gate.checkpoints.Load() - checkpoints; n != 1 {
		t.Errorf("the racing opens wrote %d checkpoints, want 1", n)
	}
	if ids, _ := gate.List(); len(ids) != 2 || m.Len() != 2 {
		t.Errorf("store lists %v, %d live; want MaxSessions = 2 of each", ids, m.Len())
	}
}

// The lifecycle model test: seeded schedules of every lifecycle
// transition, issued concurrently over a few ids against two small
// managers, checked after every round against one reference
// core.Session per id that replays the served transcript.

const (
	modelIDs = 3 // ids in play
	modelCap = 2 // MaxSessions of each manager: always contended
)

type opKind int

const (
	opNext opKind = iota
	opAnswer
	opDupAnswer // an answer, then the same request again
	opIngest
	opEvict
	opOpen
	opDelete
	opSnapRestore // snapshot → restore under a fresh id → compare → delete
	opMigrate     // export → import on the other manager → delete, as the router does
)

var opNames = [...]string{"next", "answer", "dup-answer", "ingest", "evict", "open-as", "delete", "snapshot-restore", "migrate"}

// existence ops decide whether an id exists; a round holds at most one
// per id, so its observed outcome settles the model without guessing
// an order.
func (k opKind) existence() bool { return k == opOpen || k == opDelete || k == opMigrate }

// modelOp is one operation. Other addresses the manager relative to the
// id's home when the round starts (false: the home, or manager 0 for an
// absent id), which keeps a schedule meaningful when rounds are removed
// from it.
type modelOp struct {
	Kind  opKind
	ID    int
	Other bool
	Seed  uint64 // ingest: the delta's seed
}

func (o modelOp) String() string {
	s := fmt.Sprintf("%s(%c", opNames[o.Kind], 'a'+o.ID)
	if o.Other {
		s += ", other"
	}
	return s + ")"
}

// modelRound is one burst: each worker issues its ops in order,
// concurrently with the others; Park ("load" or "checkpoint") parks the
// first such store call of manager ParkMgr until the rest of the round
// has had time to run into it.
type modelRound struct {
	Workers [][]modelOp
	Park    string
	ParkMgr int
}

func (r modelRound) String() string {
	var b strings.Builder
	for i, w := range r.Workers {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprint(&b, w)
	}
	if r.Park != "" {
		fmt.Fprintf(&b, "  [park %s@%d]", r.Park, r.ParkMgr)
	}
	return b.String()
}

func genSchedule(seed int64, rounds int) []modelRound {
	rng := stats.NewRNG(seed)
	// Answers dominate, as in service; every transition stays common
	// enough to collide with the others within a few rounds.
	weights := [...]int{opNext: 2, opAnswer: 6, opDupAnswer: 1, opIngest: 2, opEvict: 3, opOpen: 3, opDelete: 1, opSnapRestore: 1, opMigrate: 2}
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]modelRound, rounds)
	for r := range out {
		taken := make(map[int]bool) // ids that already have an existence op this round
		out[r].Workers = make([][]modelOp, 1+rng.Intn(4))
		for w := range out[r].Workers {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				op := modelOp{ID: rng.Intn(modelIDs), Other: rng.Intn(5) == 0, Seed: rng.Uint64()}
				for pick := rng.Intn(total); ; op.Kind++ {
					if pick -= weights[op.Kind]; pick < 0 {
						break
					}
				}
				if op.Kind.existence() {
					if taken[op.ID] {
						op.Kind = opAnswer
					}
					taken[op.ID] = true
				}
				out[r].Workers[w] = append(out[r].Workers[w], op)
			}
		}
		switch rng.Intn(5) {
		case 0:
			out[r].Park, out[r].ParkMgr = "load", rng.Intn(2)
		case 1:
			out[r].Park, out[r].ParkMgr = "checkpoint", rng.Intn(2)
		}
	}
	return out
}

// modelID is what the test knows about one id.
type modelID struct {
	name string
	cfg  OpenRequest
	home int // manager holding it, -1 when it does not exist
	// limbo holds an exported payload neither manager had a seat for; the
	// id stays exported at home until the next quiescent point rolls it
	// back.
	limbo *SessionSnapshot

	ref      *core.Session // replays the served transcript
	fed      int           // transcript records ref has consumed
	accepted map[int]int   // declared sequence → claim, of every answer a caller saw accepted
	queued   int           // ingests acknowledged
	applied  int           // of those, applied before the response left
	shape    synth.Profile // virtual corpus totals, from the last acknowledgement
}

func (id *modelID) reset(home int, info SessionInfo) {
	id.home, id.limbo, id.ref, id.fed = home, nil, nil, 0
	id.accepted = make(map[int]int)
	id.queued, id.applied = 0, 0
	id.shape = synth.Wikipedia.At(factdb.Stats{Claims: info.Claims, Sources: info.Sources, Documents: info.Documents})
}

type opResult struct {
	op    modelOp
	mgr   int     // the manager it addressed
	calls []error // outcome of every manager call made for the id, nil included
	// answer is the (declared sequence, claim) of an accepted answer.
	answer          *[2]int
	queued, applied bool         // ingest: acknowledged, applied inline
	totals          factdb.Stats // ingest: virtual corpus totals acknowledged
	opened          *SessionInfo
	home            int // existence ops: the id's home afterwards (-1 gone)
	limbo           *SessionSnapshot
	broken          error // an invariant the op saw broken itself
}

type modelWorld struct {
	mgrs   [2]*Manager
	stores [2]*gatedStore
	ids    [modelIDs]modelID
	tally  *modelTally
}

// modelTally counts what the schedules got to exercise; the test logs it
// so a generator change that starves a transition shows.
type modelTally struct {
	Answers, Ingests, Opens, Deletes, Migrations, Rollbacks, Limbos int
	Revivals, Full, Parked                                          int64
}

func newModelWorld(tally *modelTally) *modelWorld {
	w := &modelWorld{tally: tally}
	for k := range w.mgrs {
		w.stores[k] = newGatedStore()
		// Manager 0 has one lane, so a second live session parks and the
		// tables-held check can fail there; manager 1 has two, so two
		// sessions sample at once and a lone request fans out over both.
		w.mgrs[k] = NewManager(Config{Workers: 1 + k, MaxSessions: modelCap, Store: w.stores[k]})
		// A strictly increasing clock: no request shares its instant with
		// an eviction's cutoff.
		var tick atomic.Int64
		base := time.Now()
		w.mgrs[k].nowFn = func() time.Time { return base.Add(time.Duration(tick.Add(1))) }
	}
	for i := range w.ids {
		w.ids[i] = modelID{name: string(rune('a' + i)), cfg: fastOpen("wiki", 0.2, 100+int64(i))}
		w.ids[i].reset(-1, SessionInfo{Claims: 30, Sources: 300, Documents: 500}) // a shape for ingests that must bounce
	}
	return w
}

func (w *modelWorld) shutdown() {
	for _, m := range w.mgrs {
		w.tally.Revivals += m.Metrics(false).RestoresImage
		m.Shutdown()
	}
}

// exec runs one op against the managers; it reads the model (as of the
// round's start) and writes only its own result.
func (w *modelWorld) exec(op modelOp) (res opResult) {
	ctx := context.Background()
	id := &w.ids[op.ID]
	res.op, res.home = op, id.home
	res.mgr = max(id.home, 0)
	if op.Other && (id.home < 0 || !op.Kind.existence()) {
		res.mgr = 1 - res.mgr // existence ops on an id that exists go to its home
	}
	m := w.mgrs[res.mgr]
	call := func(err error) error { res.calls = append(res.calls, err); return err }

	switch op.Kind {
	case opNext:
		_, err := m.NextCtx(ctx, id.name, 3)
		call(err)
	case opAnswer, opDupAnswer:
		next, err := m.NextCtx(ctx, id.name, 1)
		if call(err) != nil || next.Done || len(next.Candidates) == 0 {
			return res
		}
		seq := next.Seq
		req := AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &seq}
		if _, err := m.AnswerCtx(ctx, id.name, req); call(err) != nil {
			return res
		}
		res.answer = &[2]int{seq, req.Claim}
		if op.Kind == opDupAnswer {
			// The retry of an applied request: replayed or refused, never
			// applied again (the transcript check would see the extra
			// answer).
			_, err := m.AnswerCtx(ctx, id.name, req)
			call(err)
		}
	case opIngest:
		d := synth.GenerateDelta(id.shape, 0.06, int64(op.Seed))
		resp, err := m.IngestCtx(ctx, id.name, IngestRequest{Delta: d})
		if call(err) == nil {
			res.queued, res.applied = true, resp.Applied
			res.totals = factdb.Stats{Claims: resp.Claims, Sources: resp.Sources, Documents: resp.Documents}
		}
	case opEvict:
		m.EvictIdle(0)
	case opOpen:
		info, err := m.OpenAs(id.name, id.cfg)
		switch {
		case id.home >= 0:
			if !errors.Is(err, ErrExists) {
				res.broken = fmt.Errorf("OpenAs over an existing id: %v, want ErrExists", err)
			}
		case err == nil:
			res.opened, res.home = &info, res.mgr
		case !errors.Is(err, ErrFull) && !errors.Is(err, ErrExists): // ErrExists: a request for the id holds its slot this instant
			res.broken = fmt.Errorf("OpenAs of a free id: %v", err)
		}
	case opDelete:
		err := m.Delete(id.name)
		switch {
		case id.home >= 0 && err != nil:
			res.broken = fmt.Errorf("Delete of an existing id: %v", err)
		case id.home < 0 && !errors.Is(err, ErrNotFound):
			res.broken = fmt.Errorf("Delete of an absent id: %v, want ErrNotFound", err)
		}
		res.home = -1
	case opSnapRestore:
		snap, err := m.Snapshot(id.name)
		if call(err) != nil {
			return res
		}
		info, err := m.Restore(snap)
		if err != nil {
			if !errors.Is(err, ErrFull) {
				res.broken = fmt.Errorf("Restore: %v", err)
			}
			return res
		}
		if got, err := m.Snapshot(info.ID); err == nil && !reflect.DeepEqual(got.Elicitations, snap.Elicitations) {
			res.broken = errors.New("a restored snapshot snapshots to another transcript")
		}
		if err := m.Delete(info.ID); err != nil {
			res.broken = fmt.Errorf("Delete of the restored copy: %v", err)
		}
	case opMigrate:
		dst := w.mgrs[1-res.mgr]
		snap, err := m.Export(id.name)
		if call(err) != nil {
			if id.home < 0 && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrFull) {
				res.broken = fmt.Errorf("Export of an absent id: %v", err)
			}
			return res
		}
		if id.home < 0 {
			res.broken = errors.New("Export of an absent id succeeded")
			return res
		}
		// No seat over there (or a request for the id holds its slot this
		// instant): roll back, as the router does.
		refused := func(err error) bool { return errors.Is(err, ErrFull) || errors.Is(err, ErrExists) }
		if _, err = dst.Import(id.name, snap); err == nil {
			if err := m.Delete(id.name); err != nil {
				res.broken = fmt.Errorf("Delete of the exported copy: %v", err)
			}
			res.home = 1 - res.mgr
		} else if !refused(err) {
			res.broken = fmt.Errorf("Import: %v", err)
		} else if _, err := m.Import(id.name, snap); refused(err) {
			res.limbo = &snap
		} else if err != nil {
			res.broken = fmt.Errorf("rollback Import: %v", err)
		}
	}
	return res
}

// runRound issues the round's ops, folds what the callers saw into the
// model, and checks every invariant at the quiescent point behind it.
func (w *modelWorld) runRound(r modelRound) error {
	results := make([][]opResult, len(r.Workers))
	release := func() {}
	var entered <-chan struct{}
	if r.Park != "" {
		entered, release = w.stores[r.ParkMgr].arm(r.Park)
	}
	var wg sync.WaitGroup
	for i, ops := range r.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range ops {
				results[i] = append(results[i], w.exec(op))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-entered: // nil without a gate: never ready
		w.tally.Parked++
		time.Sleep(time.Millisecond) // the rest of the round runs into the parked call
	case <-done:
	}
	release()
	<-done

	var racing [modelIDs]bool // an existence op ran on the id this round
	var evicted [2]bool
	var flat []opResult
	for _, rs := range results {
		for _, res := range rs {
			flat = append(flat, res)
			racing[res.op.ID] = racing[res.op.ID] || res.op.Kind.existence()
			evicted[res.mgr] = evicted[res.mgr] || res.op.Kind == opEvict
		}
	}
	// What each call may have returned, judged against the model as the
	// round found it.
	for _, res := range flat {
		id := &w.ids[res.op.ID]
		if res.broken != nil {
			return fmt.Errorf("%v: %w", res.op, res.broken)
		}
		for _, err := range res.calls {
			atHome := id.home == res.mgr
			if errors.Is(err, ErrFull) {
				w.tally.Full++
			}
			switch {
			case errors.Is(err, ErrShutdown), errors.Is(err, ErrPersist):
				return fmt.Errorf("%v: %v", res.op, err)
			case racing[res.op.ID]:
				// Anything from before to after the transition.
			case !atHome && err == nil:
				return fmt.Errorf("%v: manager %d served an id it does not hold", res.op, res.mgr)
			case !atHome && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrFull):
				return fmt.Errorf("%v: %v from a manager that does not hold the id", res.op, err)
			case atHome && (errors.Is(err, ErrMigrated) || errors.Is(err, ErrExists)):
				return fmt.Errorf("%v: %v for an id at home", res.op, err)
			case atHome && errors.Is(err, ErrNotFound) && !evicted[res.mgr]:
				// (With an eviction in the round a request may find the
				// session closed between lookup and lock.)
				return fmt.Errorf("%v: %v for an id at home", res.op, err)
			}
		}
	}
	// Existence first: answers accepted in the round of an open belong to
	// the new session, those in the round of a delete died with the old.
	for _, res := range flat {
		id := &w.ids[res.op.ID]
		switch {
		case res.opened != nil:
			w.tally.Opens++
			id.reset(res.home, *res.opened)
		case res.op.Kind == opDelete && id.home >= 0:
			w.tally.Deletes++
			id.home = -1
		case res.op.Kind == opMigrate && res.limbo != nil:
			w.tally.Limbos++
			id.limbo = res.limbo
		case res.op.Kind == opMigrate && res.home != id.home:
			w.tally.Migrations++
			id.home = res.home
		case res.op.Kind == opMigrate && id.home >= 0 && len(res.calls) > 0 && res.calls[0] == nil:
			w.tally.Rollbacks++
		}
	}
	for _, res := range flat {
		id := &w.ids[res.op.ID]
		if id.home < 0 {
			continue
		}
		if res.answer != nil {
			w.tally.Answers++
			id.accepted[res.answer[0]] = res.answer[1]
		}
		if res.queued {
			w.tally.Ingests++
			id.queued++
			if res.applied {
				id.applied++
			}
			if res.totals.Claims >= id.shape.Claims {
				id.shape = id.shape.At(res.totals)
			}
		}
	}
	return w.checkQuiescent()
}

// checkQuiescent holds the managers to the model while nothing runs.
func (w *modelWorld) checkQuiescent() error {
	for i := range w.ids {
		// An exported session nobody had a seat for: it must refuse to
		// serve until the rollback lands, and the rollback must land once
		// there is room.
		if id := &w.ids[i]; id.limbo != nil {
			m := w.mgrs[id.home]
			if _, err := m.State(id.name, false); !errors.Is(err, ErrMigrated) {
				return fmt.Errorf("id %s: exported and not yet imported anywhere, State says %v, want ErrMigrated", id.name, err)
			}
			m.EvictIdle(0)
			if _, err := m.Import(id.name, *id.limbo); err != nil {
				return fmt.Errorf("id %s: rollback import into an empty manager: %v", id.name, err)
			}
			id.limbo = nil
		}
	}
	for k, m := range w.mgrs {
		if n := m.Budget().InUse(); n != 0 {
			return fmt.Errorf("manager %d: %d lanes in use at rest", k, n)
		}
		if n := m.Len(); n > modelCap {
			return fmt.Errorf("manager %d: %d live sessions over a cap of %d", k, n, modelCap)
		}
		stored, err := w.stores[k].Store.List()
		if err != nil {
			return err
		}
		known := make(map[string]bool)
		for i := range w.ids {
			known[w.ids[i].name] = w.ids[i].home == k
		}
		for _, name := range stored {
			if !known[name] {
				return fmt.Errorf("manager %d: the store holds a record for %q, which is not here", k, name)
			}
		}
		m.mu.Lock()
		for name, sl := range m.slots {
			switch {
			case sl.done != nil || sl.deleted:
				err = fmt.Errorf("manager %d: id %q is still building at rest", k, name)
			case (sl.sess != nil) == sl.exported:
				err = fmt.Errorf("manager %d: id %q is in no one state (live %v, exported %v)", k, name, sl.sess != nil, sl.exported)
			case sl.exported || !known[name]:
				err = fmt.Errorf("manager %d: a slot for %q (exported %v), which is not here", k, name, sl.exported)
			}
		}
		m.mu.Unlock()
		if err != nil {
			return err
		}
		for name, here := range known {
			if _, ok, _ := w.stores[k].Store.Load(name); here && !ok {
				return fmt.Errorf("manager %d: no record for id %s, which lives here", k, name)
			}
		}
	}
	for i := range w.ids {
		if w.ids[i].home >= 0 {
			if err := w.checkID(&w.ids[i]); err != nil {
				return fmt.Errorf("id %s: %w", w.ids[i].name, err)
			}
		}
	}
	// No more chains hold sampler tables than there are lanes to sample
	// on: the rest of the live sessions are parked.
	for k, m := range w.mgrs {
		if held, _ := tablesHeld(m); len(held) > m.Budget().Total() {
			return fmt.Errorf("manager %d: %v hold sampler tables, more than its %d lanes", k, held, m.Budget().Total())
		}
	}
	// Nor more databases their indexes: parking drops them with the
	// tables, and a ranking that rebuilds them alone makes its session
	// warm again.
	for k, m := range w.mgrs {
		if held := indexesHeld(m); len(held) > m.Budget().Total() {
			return fmt.Errorf("manager %d: %v hold their indexes, more than its %d lanes", k, held, m.Budget().Total())
		}
	}
	return nil
}

// checkID compares one id, live or spilled, with its reference.
func (w *modelWorld) checkID(id *modelID) error {
	ctx := context.Background()
	m, store := w.mgrs[id.home], w.stores[id.home].Store
	m.mu.Lock()
	live := m.slots[id.name] != nil
	m.mu.Unlock()

	// The served view first: ranking drains the mailbox, which may grow
	// the transcript.
	var next NextResponse
	var state StateResponse
	var transcript []core.Elicitation
	var image []byte
	if live {
		var err error
		if next, err = m.NextCtx(ctx, id.name, 1<<20); err != nil {
			return fmt.Errorf("next on a live session: %w", err)
		}
		if state, err = m.State(id.name, true); err != nil {
			return err
		}
		snap, err := m.Snapshot(id.name)
		if err != nil {
			return err
		}
		transcript = snap.Elicitations
	} else {
		rec, ok, err := store.Load(id.name)
		if err != nil || !ok {
			return fmt.Errorf("spilled, and its record loads as (%v, %v)", ok, err)
		}
		transcript, image = rec.Elicitations, rec.Image
	}

	// The transcript holds every accepted answer once, in order, and
	// nothing else that was answered.
	var declared []int
	for seq := range id.accepted {
		declared = append(declared, seq)
	}
	sort.Ints(declared)
	var want, got []int
	for _, seq := range declared {
		want = append(want, id.accepted[seq])
	}
	ingests := 0
	for _, e := range transcript {
		switch {
		case e.Ingest != nil:
			ingests++
		case e.OK:
			got = append(got, e.Claim)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("transcript answers claims %v, callers saw %v accepted", got, want)
	}
	if ingests < id.applied || ingests > id.queued {
		return fmt.Errorf("transcript holds %d ingests; %d were acknowledged, %d of them as applied", ingests, id.queued, id.applied)
	}

	// The reference replays the tail it has not seen.
	if id.ref == nil {
		var err error
		if id.ref, _, err = BuildSession(id.cfg, nil, nil); err != nil {
			return err
		}
	}
	ref := id.ref
	if id.fed > len(transcript) {
		return fmt.Errorf("transcript shrank from %d to %d records", id.fed, len(transcript))
	}
	for _, e := range transcript[id.fed:] {
		switch {
		case e.Ingest != nil:
			if _, err := ref.Ingest(*e.Ingest); err != nil {
				return fmt.Errorf("reference ingest: %w", err)
			}
		case e.OK:
			if err := ref.Answer(e.Claim, e.Verdict, true); err != nil {
				return fmt.Errorf("reference diverged: %w", err)
			}
		}
		// A record that is neither was a prompt the Answer above skipped
		// by itself; the comparison below sees it.
	}
	id.fed = len(transcript)
	if refLog := ref.Snapshot().Elicitations; !reflect.DeepEqual(refLog, transcript) {
		return fmt.Errorf("served transcript %+v, the reference replaying its answers recorded %+v", transcript, refLog)
	}
	rank, err := ref.Pending(0)
	if err != nil {
		return err
	}

	if live {
		if served := ranking(next); next.Done != (len(rank) == 0) || !slices.Equal(served, rank) {
			return fmt.Errorf("served ranking %v (done %v), reference %v", served, next.Done, rank)
		}
		if len(state.Marginals) != ref.DB.NumClaims {
			return fmt.Errorf("%d marginals over %d claims", len(state.Marginals), ref.DB.NumClaims)
		}
		for c, p := range state.Marginals {
			if p != ref.State.P(c) {
				return fmt.Errorf("P(%d) = %v served, %v in the reference", c, p, ref.State.P(c))
			}
		}
		return nil
	}
	// Spilled: what the record would revive as, without reviving it.
	revived, _, err := BuildSession(id.cfg, &core.Snapshot{Elicitations: transcript, Image: image}, nil)
	if err != nil {
		return fmt.Errorf("the stored record does not restore: %w", err)
	}
	if r := revived.Restored(); !r.Image {
		return fmt.Errorf("the spill checkpoint's image was refused: %+v", r)
	}
	if got, err := revived.Pending(0); err != nil || !reflect.DeepEqual(got, rank) {
		return fmt.Errorf("the record revives ranking %v (%v), reference %v", got, err, rank)
	}
	for c := 0; c < ref.DB.NumClaims; c++ {
		if p := revived.State.P(c); p != ref.State.P(c) {
			return fmt.Errorf("the record revives P(%d) = %v, reference %v", c, p, ref.State.P(c))
		}
	}
	return nil
}

// runSchedule runs rounds against a fresh pair of managers; the error
// names the round it arose in.
func runSchedule(rounds []modelRound, tally *modelTally) error {
	w := newModelWorld(tally)
	defer w.shutdown()
	for i, r := range rounds {
		if err := w.runRound(r); err != nil {
			return fmt.Errorf("round %d (%v): %w", i, r, err)
		}
	}
	return nil
}

// TestLifecycleInterleavings drives seeded schedules of concurrent
// lifecycle operations — open-as, next, answer (and its duplicate),
// ingest, eviction, delete, snapshot → restore, export → import across
// two managers — from 1–4 goroutines over three ids with MaxSessions 2,
// some rounds with a store Load or Checkpoint parked mid-flight. After
// every round: each id is in one slot state with nothing building, no
// lane is held, no manager is over its cap, the store holds a record
// exactly for the ids that live there, and every session's transcript,
// ranking and posteriors — live through the API, spilled through what
// its record restores to — equal a reference core.Session replaying
// the answers callers saw accepted. A failing schedule is shrunk round
// by round and printed with its seed.
func TestLifecycleInterleavings(t *testing.T) {
	seeds, rounds := 10, 40
	if testing.Short() {
		seeds = 2
	}
	var tally modelTally
	defer func() { t.Logf("exercised: %+v", tally) }()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		schedule := genSchedule(seed, rounds)
		err := runSchedule(schedule, &tally)
		if err == nil {
			continue
		}
		// Shrink: drop every round the failure survives without. The
		// interleaving inside a round is the scheduler's, so a candidate
		// gets a few runs to fail.
		for i := len(schedule) - 1; i >= 0; i-- {
			cand := append(append([]modelRound(nil), schedule[:i]...), schedule[i+1:]...)
			for try := 0; try < 3; try++ {
				if cerr := runSchedule(cand, &modelTally{}); cerr != nil {
					schedule, err = cand, cerr
					break
				}
			}
		}
		var b strings.Builder
		for i, r := range schedule {
			fmt.Fprintf(&b, "  %2d: %v\n", i, r)
		}
		t.Fatalf("seed %d: %v\nshrunk to %d rounds:\n%s", seed, err, len(schedule), b.String())
	}
}
