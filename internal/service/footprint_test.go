package service

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/crf"
	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/guidance"
	"factcheck/internal/persist"
	"factcheck/internal/stats"
)

// fleetChurnOpen is the open request of the fleet-churn benchmark
// workload (bench/workloads.go): the many-small-sessions shape whose
// live heap is the corpus.
func fleetChurnOpen(seed int64) OpenRequest {
	return OpenRequest{Profile: "wiki", Scale: 0.5, Communities: 4, Strategy: "uncertainty", Seed: seed}
}

// TestLiveSessionFootprint is the sessions-per-gigabyte regression
// gate: the heap a freshly opened fleet-churn session keeps live, as
// the benchmark's live_heap_mb sees it (HeapAlloc after collection),
// averaged over 64 sessions opened after a warm-up session, which pays
// for what the manager and the process allocate once. It is measured
// twice. Warm, on a manager with a lane per session, so that every
// session keeps its sampler tables: the flat corpus tables and
// adjacency indexes put it at ≈ 209 KB (≈ 215 with a clique offset per
// document row, ≈ 245 with a slice per index row, ≈ 430 with a heap
// slice per feature vector and reference list too). Parked, on a
// one-lane manager whose every measured session has since been
// overtaken by a later one, so that none holds its run table,
// agreement counters or sweep scratch (DESIGN.md §7): ≈ 166 KB. Each
// ceiling is its measurement plus 10 %, room for allocator and runtime
// drift, not for a per-row allocation coming back or a parked session
// keeping its tables. Not parallel: it reads process-wide heap
// statistics.
func TestLiveSessionFootprint(t *testing.T) {
	const sessions, warmCeilingKB, parkedCeilingKB = 64, 229, 183
	perSession := func(lanes int) float64 {
		m := NewManager(Config{Workers: lanes, MaxSessions: sessions + 2, Store: persist.NewMemStore()})
		defer m.Shutdown()
		open := func(i int) {
			if _, err := m.OpenAs(fmt.Sprintf("s%02d", i), fleetChurnOpen(int64(500+i))); err != nil {
				t.Fatal(err)
			}
		}
		// On one lane, opening a session parks the one before it; the
		// extra session that parks the last is deleted before the heap is
		// read.
		park := func() {
			if lanes < sessions {
				open(sessions + 1)
				if err := m.Delete(fmt.Sprintf("s%02d", sessions+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		open(sessions) // what the manager and the process allocate once is no session's
		park()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < sessions; i++ {
			open(i)
		}
		park()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		want := 0 // parked: the session that parked the last is gone
		if lanes > sessions {
			want = sessions + 1 // warm: the warm-up session too
		}
		if held, _ := tablesHeld(m); len(held) != want {
			t.Errorf("%d lanes: %d sessions hold sampler tables, want %d", lanes, len(held), want)
		}
		runtime.KeepAlive(m)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1024 / sessions
	}
	warm, parked := perSession(sessions+1), perSession(1)
	t.Logf("%.1f KB of live heap per warm fleet-churn session, %.1f KB per parked one", warm, parked)
	if warm > warmCeilingKB {
		t.Errorf("a warm fleet-churn session holds %.1f KB, ceiling %d KB", warm, warmCeilingKB)
	}
	if parked > parkedCeilingKB {
		t.Errorf("a parked fleet-churn session holds %.1f KB, ceiling %d KB", parked, parkedCeilingKB)
	}
}

// discardStore is a store that retains nothing: what a session's
// transcript costs in memory is then what the session itself holds.
type discardStore struct{}

func (discardStore) Checkpoint(string, persist.Record) error    { return nil }
func (discardStore) Append(string, int, core.Elicitation) error { return nil }
func (discardStore) Load(string) (persist.Record, bool, error)  { return persist.Record{}, false, nil }
func (discardStore) Delete(string) error                        { return nil }
func (discardStore) List() ([]string, error)                    { return nil, nil }
func (discardStore) Close() error                               { return nil }

// walk calls visit on every value reachable from v through pointers,
// interfaces, struct fields, slice, array and map elements (func values
// and channels are opaque), entering each pointer, map and slice once;
// it stops, reporting true, as soon as visit does.
func walk(v reflect.Value, seen map[[2]any]bool, visit func(reflect.Value) bool) bool {
	if !v.IsValid() {
		return false
	}
	if visit(v) {
		return true
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		if v.IsNil() {
			return false
		}
		key := [2]any{v.Pointer(), v.Type()}
		if seen[key] {
			return false
		}
		seen[key] = true
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		return walk(v.Elem(), seen, visit)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if walk(v.Field(i), seen, visit) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				if walk(v.Index(i), seen, visit) {
					return true
				}
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if walk(it.Key(), seen, visit) || walk(it.Value(), seen, visit) {
				return true
			}
		}
	}
	return false
}

// reaches reports whether a value of one of the given types can be
// reached from v (walk).
func reaches(v reflect.Value, seen map[[2]any]bool, types ...reflect.Type) bool {
	return walk(v, seen, func(v reflect.Value) bool { return slices.Contains(types, v.Type()) })
}

// TestIngestedSessionFootprint is the footprint gate of the streaming
// path: sessions of the streaming-ingest benchmark shape (wiki, 12
// communities, sweep every 16th, pool 16) that took 30 deltas of 2 %
// each, every one through a JSON decode the way a served delta arrives,
// with an answer before each, measured after a warm-up session of the
// same script. An applied delta lives in the session once, as rows of
// the corpus tables (DESIGN.md §15). On two lanes the first of three
// sessions is parked by the time the heap is read and the other two
// keep their sampler tables (DESIGN.md §7): measured ≈ 0.71 MB per
// session over the three, ≈ 0.75 over the one warm session of the short
// and race runs, against ≈ 1.50 MB when the transcript also kept every
// decoded payload; the ceiling is the larger measurement plus 10 %. And
// structurally: once Ingest has returned, no delta row is reachable
// from the live session at all. Not parallel: it reads process-wide
// heap statistics.
func TestIngestedSessionFootprint(t *testing.T) {
	const deltas, ceilingKB = 30, 835
	sessions := 3
	if raceEnabled || testing.Short() {
		sessions = 1 // the script is ≈ 0.5 s of inference per session, ten times that under the race detector
	}
	m := NewManager(Config{Workers: 2, MaxSessions: sessions + 1, Store: discardStore{}})
	defer m.Shutdown()
	c := NewLocalClient(m)
	drive := func(i int) {
		req := OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16, Seed: int64(700 + i)}
		s := Script{Client: c}
		if _, err := s.Open(fmt.Sprintf("s%02d", i), req); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < deltas; r++ {
			mustAnswers(t, c, s.ID, 1)
			if _, resp, err := s.Ingest(0.02, stats.StreamSeed(uint64(req.Seed), uint64(r))); err != nil || !resp.Applied {
				t.Fatalf("ingest: %+v, %v", resp, err)
			}
		}
	}
	// The manager, the lane budget and the what-if free list, whose
	// workers grow to the largest session they served, are the
	// process's: a warm-up session of the same script pays for them.
	drive(sessions)
	warm := fmt.Sprintf("s%02d", sessions)
	if err := m.Delete(warm); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		drive(i)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1024 / float64(sessions)
	t.Logf("%.1f KB of live heap per streaming-ingest session after %d deltas", perSession, deltas)
	if perSession > ceilingKB {
		t.Errorf("a streaming-ingest session holds %.1f KB after %d deltas, ceiling %d KB", perSession, deltas, ceilingKB)
	}

	m.mu.Lock()
	live := m.liveLocked()
	m.mu.Unlock()
	if len(live) != sessions {
		t.Fatalf("%d live sessions, want %d", len(live), sessions)
	}
	rows := []reflect.Type{reflect.TypeOf(factdb.DeltaSource{}), reflect.TypeOf(factdb.DeltaDocument{}), reflect.TypeOf(factdb.DeltaRef{})}
	for _, s := range live {
		ingests := 0
		for i := 0; i < s.core.TranscriptLen(); i++ {
			if _, ingest := s.core.TranscriptAt(i); ingest {
				ingests++
			}
		}
		if ingests != deltas {
			t.Fatalf("session %s recorded %d ingests, want %d", s.id, ingests, deltas)
		}
		if reaches(reflect.ValueOf(s), map[[2]any]bool{}, rows...) {
			t.Errorf("session %s still reaches a delta row after its ingests returned", s.id)
		}
	}
	// The walk finds what it is asked to find.
	held := &struct{ log []core.Elicitation }{[]core.Elicitation{{Ingest: &factdb.Delta{Sources: make([]factdb.DeltaSource, 1)}}}}
	if !reaches(reflect.ValueOf(held), map[[2]any]bool{}, rows...) {
		t.Error("reaches misses a delta source behind an unexported field")
	}
	runtime.KeepAlive(m)
}

// TestWhatIfSessionFootprint is the footprint gate of a session that
// scores what-ifs: sessions of the streaming-ingest benchmark shape
// (wiki, 12 communities, sweep every 16th, pool 16), each opened and
// asked to rank. A scoring round borrows its lanes' worker chains from
// the process-wide free list and returns them, so a ranked session
// keeps its one chain and no scoring lane. On two lanes the last two
// sessions keep their sampler tables and the rest are parked
// (DESIGN.md §7): ≈ 419 KB measured over the two warm sessions of the
// short and race runs, ≈ 360 over six of which four are parked; the
// ceiling is the warm figure plus 10 % (≈ 451 when every session kept
// two worker chains and their buffers). Structurally: no guidance.Worker and no
// gibbs.Chain besides the engine's is reachable from a live session,
// and the free list reaches no database — not the one of a session
// just deleted, nor any other. Not parallel: it reads process-wide heap
// statistics.
func TestWhatIfSessionFootprint(t *testing.T) {
	const ceilingKB = 459
	sessions := 6
	if raceEnabled || testing.Short() {
		sessions = 2
	}
	m := NewManager(Config{Workers: 2, MaxSessions: sessions + 1, Store: discardStore{}})
	defer m.Shutdown()
	open := func(i int) string {
		id := fmt.Sprintf("w%02d", i)
		req := OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16, Seed: int64(900 + i)}
		if _, err := m.OpenAs(id, req); err != nil {
			t.Fatal(err)
		}
		if _, err := m.NextCtx(context.Background(), id, 1); err != nil {
			t.Fatal(err)
		}
		return id
	}
	// The free list's workers are the process's, not a session's. The
	// warm-up session goes before the measurement, so that its tables,
	// parked meanwhile, are not subtracted from the sessions'.
	if err := m.Delete(open(sessions)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		open(i)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1024 / float64(sessions)
	t.Logf("%.1f KB of live heap per ranked streaming-ingest session", perSession)
	if perSession > ceilingKB {
		t.Errorf("a ranked streaming-ingest session holds %.1f KB, ceiling %d KB", perSession, ceilingKB)
	}

	m.mu.Lock()
	live := m.liveLocked()
	m.mu.Unlock()
	chainType := reflect.TypeOf(&gibbs.Chain{})
	for _, s := range live {
		seen := map[[2]any]bool{}
		if reaches(reflect.ValueOf(s.core), seen, reflect.TypeOf(guidance.Worker{})) {
			t.Errorf("session %s reaches a what-if worker", s.id)
		}
		chains := 0
		for key := range seen {
			if key[1] == chainType {
				chains++
			}
		}
		if chains != 1 {
			t.Errorf("session %s reaches %d Gibbs chains, want its engine's alone", s.id, chains)
		}
	}

	gone := live[0]
	if err := m.Delete(gone.id); err != nil {
		t.Fatal(err)
	}
	idle := guidance.IdleWorkers()
	if len(idle) == 0 {
		t.Fatal("the free list holds no worker after the ranking rounds")
	}
	if reaches(reflect.ValueOf(idle), map[[2]any]bool{}, reflect.TypeOf(factdb.DB{})) {
		t.Errorf("the free list's %d workers reach a database after session %s was deleted", len(idle), gone.id)
	}
	// The walk finds a session's database and its chain where they are.
	if !reaches(reflect.ValueOf(gone.core), map[[2]any]bool{}, reflect.TypeOf(factdb.DB{})) ||
		!reaches(reflect.ValueOf(gone.core), map[[2]any]bool{}, chainType) {
		t.Error("reaches misses a session's database or chain")
	}
	runtime.KeepAlive(m)
}

// TestBuildCorpusAllocations bounds the allocations of generating the
// fleet-churn corpus — every open, revive and migration pays them — and
// reports the two larger benchmark shapes beside it: ≈ 265 for
// fleet-churn, the ceiling that × 1.25. The tables, the adjacency
// indexes and the hyperlink graph are a few flat arrays each, so a
// per-row allocation coming back — per claim, document or source —
// shows as hundreds.
func TestBuildCorpusAllocations(t *testing.T) {
	allocs := func(req OpenRequest) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := BuildCorpus(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	fleet := allocs(fleetChurnOpen(7))
	t.Logf("BuildCorpus allocations: fleet-churn (wiki × 0.5, 4 communities) %.0f, wiki × 1 %.0f, wiki × 2 / 12 communities %.0f",
		fleet, allocs(OpenRequest{Profile: "wiki", Seed: 7}), allocs(OpenRequest{Profile: "wiki", Scale: 2, Communities: 12, Seed: 7}))
	if fleet >= 332 {
		t.Errorf("BuildCorpus of the fleet-churn request allocates %.0f times, want under 332", fleet)
	}
}

// heldTables names, for every Gibbs chain reachable from v, the fields
// of the run table it holds — claim rows, run columns, agreement
// counters — and reports how many chains it found. A finished session's
// engine has released them all (gibbs.Chain.Release).
func heldTables(v reflect.Value) (held []string, chains int) {
	chainType := reflect.TypeOf(&gibbs.Chain{})
	walk(v, map[[2]any]bool{}, func(v reflect.Value) bool {
		if v.Type() != chainType || v.IsNil() {
			return false
		}
		chains++
		for _, f := range []string{"claims", "src", "w", "diff", "cold", "agree"} {
			if !v.Elem().FieldByName(f).IsNil() {
				held = append(held, f)
			}
		}
		return false
	})
	return held, chains
}

// heldBase names, for every database reachable from v, the base rows
// and index arrays it holds — feature rows, cliques, CSR offsets and
// entries, the components' source lists — and reports how many
// databases it found. A finished session's database has released them
// all (factdb.DB.ReleaseBase): with no applied delta, its tables hold
// nothing.
func heldBase(v reflect.Value) (held []string, dbs int) {
	dbType := reflect.TypeOf(&factdb.DB{})
	found := map[uintptr]bool{}
	walk(v, map[[2]any]bool{}, func(v reflect.Value) bool {
		if v.Type() != dbType || v.IsNil() || found[v.Pointer()] {
			return false
		}
		found[v.Pointer()] = true
		dbs++
		db := v.Elem()
		for _, f := range []string{"srcFeat", "docFeat", "cliques"} {
			if db.FieldByName(f).Len() != 0 {
				held = append(held, f)
			}
		}
		for _, f := range []string{"claimCliques", "sourceClaims", "claimSources"} {
			for _, a := range []string{"off", "data"} {
				if !db.FieldByName(f).FieldByName(a).IsNil() {
					held = append(held, f+"."+a)
				}
			}
		}
		if !db.FieldByName("componentSources").IsNil() {
			held = append(held, "componentSources")
		}
		return false
	})
	return held, dbs
}

// heldGains counts, over every gain cache reachable from v, the slots of
// its gain and entropy tables, and reports how many caches it found. A
// finished session's cache has released them all, its epochs kept
// (guidance.GainCache.Release).
func heldGains(v reflect.Value) (slots, caches int) {
	cacheType := reflect.TypeOf(&guidance.GainCache{})
	walk(v, map[[2]any]bool{}, func(v reflect.Value) bool {
		if v.Type() != cacheType || v.IsNil() {
			return false
		}
		caches++
		for _, f := range []string{"gains", "entropies"} {
			tables := v.Elem().FieldByName(f)
			for k := 0; k < tables.Len(); k++ {
				slots += tables.Index(k).Len()
			}
		}
		return false
	})
	return slots, caches
}

// assertReleased fails unless m's live session id reaches one chain,
// one database and one gain cache, and none of them holds anything
// core.Session.Release drops.
func assertReleased(t *testing.T, at string, m *Manager, id string) {
	t.Helper()
	m.mu.Lock()
	s := m.slots[id].sess
	m.mu.Unlock()
	if held, chains := heldTables(reflect.ValueOf(s.core)); len(held) != 0 || chains != 1 {
		t.Errorf("%s session %s: %d chains, holding %v", at, id, chains, held)
	}
	if held, dbs := heldBase(reflect.ValueOf(s.core)); len(held) != 0 || dbs != 1 {
		t.Errorf("%s session %s: %d databases, holding %v", at, id, dbs, held)
	}
	if slots, caches := heldGains(reflect.ValueOf(s.core)); slots != 0 || caches != 1 {
		t.Errorf("%s session %s: %d gain caches, holding %d slots", at, id, caches, slots)
	}
}

// TestFinishedSessionFootprint is the footprint gate of a finished
// session: sessions of the guided-connected benchmark shape (wiki, one
// connected component, hybrid what-if ranking) answered until the
// server reports Done, after a warm-up session that pays for what the
// process allocates once. A finished session serves reads only, so its
// engine has released the sampler's run table, its database the base
// rows its generator rebuilds and the components' source lists, and its
// gain cache its entries (DESIGN.md §7): 27.6–30.6 KB measured at full
// scale over six runs (12.2–15.6 at the 0.3 scale of the short and race
// runs) against ≈ 48 (≈ 20) when it kept the entries and source lists,
// ≈ 352 (≈ 108) when it kept the base, ≈ 435 (≈ 139) when it kept the
// table too; the ceiling is the largest measurement plus 10 %. Four
// sessions, since a few KB of the process's own drift would be a tenth
// of one.
// Structurally: no claim row, run column, feature row, clique, index
// row, component source list or gain entry is reachable from a finished
// session, nor from one revived after a spill or imported after an
// export. Not parallel: it reads process-wide heap statistics.
func TestFinishedSessionFootprint(t *testing.T) {
	sessions, scale, ceilingKB := 4, 1.0, 34.0
	if raceEnabled || testing.Short() {
		sessions, scale, ceilingKB = 4, 0.3, 17 // ≈ 1.5 s of answering per session at full scale
	}
	m := NewManager(Config{Workers: 2, MaxSessions: sessions + 1, Store: persist.NewMemStore()})
	defer m.Shutdown()
	c := NewLocalClient(m)
	id := func(i int) string { return fmt.Sprintf("f%02d", i) }
	drive := func(i int) {
		s := Script{Client: c}
		if _, err := s.Open(id(i), OpenRequest{Profile: "wiki", Scale: scale, Seed: int64(1100 + i)}); err != nil {
			t.Fatal(err)
		}
		if st := mustAnswers(t, c, s.ID, math.MaxInt); !st.Done {
			t.Fatalf("session %s is not done after answering every question", s.ID)
		}
	}
	drive(sessions)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		drive(i)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1024 / float64(sessions)
	t.Logf("%.1f KB of live heap per finished guided-connected session (scale %v)", perSession, scale)
	if perSession > ceilingKB {
		t.Errorf("a finished guided-connected session holds %.1f KB, ceiling %.0f KB", perSession, ceilingKB)
	}

	for i := 0; i < sessions; i++ {
		assertReleased(t, "finished", m, id(i))
	}
	spill(t, m, sessions+1)
	for i := 0; i < sessions; i++ {
		if st, err := m.State(id(i), false); err != nil || !st.Done {
			t.Fatalf("revive %s: done %v, %v", id(i), st.Done, err)
		}
		assertReleased(t, "revived", m, id(i))
	}
	assertRestores(t, m, int64(sessions), nil)
	to := NewManager(Config{Workers: 2, Store: persist.NewMemStore()})
	defer to.Shutdown()
	snap, err := m.Export(id(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := to.Import(id(0), snap); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, "imported", to, id(0))
	// The walks find a chain's tables, a database's base and a cache's
	// entries where they are: a chain builds its tables when it is given
	// a model, a corpus holds its base until a finished session releases
	// it, and a ranking stores gains.
	corpus, err := BuildCorpus(OpenRequest{Profile: "wiki", Scale: scale, Seed: 1100})
	if err != nil {
		t.Fatal(err)
	}
	ch := gibbs.NewChain(corpus.DB, stats.NewRNG(1))
	ch.SetModel(crf.New(corpus.DB))
	if held, _ := heldTables(reflect.ValueOf(ch)); len(held) != 6 {
		t.Errorf("heldTables finds %v on a chain given a model", held)
	}
	if held, _ := heldBase(reflect.ValueOf(ch)); len(held) != 10 {
		t.Errorf("heldBase finds %v on a generated corpus", held)
	}
	ranked, _, err := BuildSession(OpenRequest{Profile: "wiki", Scale: 0.3, Seed: 1100}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ranked.Pending(1); err != nil {
		t.Fatal(err)
	}
	if slots, caches := heldGains(reflect.ValueOf(ranked)); slots == 0 || caches != 1 {
		t.Errorf("heldGains finds %d slots in %d caches on a ranked session", slots, caches)
	}
}
