// heapprofile is the footprint probe behind ROADMAP item 6. It holds
// live sessions of two benchmark shapes, one after the other, forces
// two collections, and reports for each what stays live — runtime
// HeapAlloc per session, and a pprof heap profile sampled finely enough
// (MemProfileRate 512) to attribute it to allocation sites with
// `pprof -top -sample_index=inuse_space`:
//
//   - fleet-churn: 400 sessions (wiki × 0.5, 4 communities, uncertainty
//     ranking), 8 oracle answers each, on an in-memory store;
//   - streaming-ingest: 16 sessions (wiki × 1, 12 communities, sweep
//     every 16th, pool 16), 17 warm answers then 30 rounds of 2 answers
//     and one 2 % delta, on a file store in a temporary directory;
//   - guided-connected: 10 sessions (wiki × 1, one connected component,
//     hybrid what-if ranking), 8 oracle answers each and the ranking
//     after them, on an in-memory store — a what-if session between
//     answers;
//   - finished: 10 sessions of the guided-connected shape answered
//     until the server reports Done, on an in-memory store — what the
//     guided-connected ledger workload ends with;
//   - finished-gi: 12 sessions of the guided-incremental ledger
//     workload's shape (wiki × 2, 12 communities, sweep every 16th)
//     answered until Done, on an in-memory store — what that workload
//     ends with.
//
// After each row it also reports the what-if workers parked on the
// scoring free list (guidance.IdleWorkers): the process's scratch,
// which no session owns; how many of the Gibbs chains reachable from
// the manager have released their run table (gibbs.Chain.Released);
// how many of the databases have released the base rows their
// generator rebuilds, and with them their indexes
// (factdb.DB.BaseReleased); and how many of the gain caches hold no
// entry (guidance.GainCache.Entries): a finished session's have all
// three. The released ones include the parked sessions': the manager's
// two lanes keep the two sessions it served last warm, and every live
// session before them has been released as a finished one is
// (core.Session.Release, DESIGN.md §7), so a live row reads all but
// two.
//
// Both go through service.NewLocalClient — the served shape: every
// delta crosses a JSON decode on its way in, per-row slices and their
// growth slack included, and the file store keeps nothing of it in
// memory.
//
// `make heap-profile` runs it and writes the text listings next to the
// profiles.
package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"

	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/guidance"
	"factcheck/internal/persist"
	"factcheck/internal/service"
	"factcheck/internal/stats"
)

// The probes' shapes are fixed so their per-session numbers stay
// comparable with the per-owner tables in ROADMAP item 6.
var probes = []probe{
	{
		name: "fleet-churn", sessions: 400, answers: 8, out: "profiles/heap.prof",
		open: service.OpenRequest{Profile: "wiki", Scale: 0.5, Communities: 4, Strategy: "uncertainty"},
	},
	{
		name: "streaming-ingest", sessions: 16, answers: 17, rounds: 30, perRound: 2, deltaFrac: 0.02, out: "profiles/heap-ingest.prof",
		open: service.OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16},
	},
	{
		name: "guided-connected", sessions: 10, answers: 8, ranked: true, out: "profiles/heap-guided.prof",
		open: service.OpenRequest{Profile: "wiki"},
	},
	{
		name: "finished", sessions: 10, answers: math.MaxInt, out: "profiles/heap-finished.prof",
		open: service.OpenRequest{Profile: "wiki"},
	},
	{
		name: "finished-gi", sessions: 12, answers: math.MaxInt, out: "profiles/heap-finished-gi.prof",
		open: service.OpenRequest{Profile: "wiki", Scale: 2, Communities: 12, FullSweepEvery: 16},
	},
}

// probe is one row: sessions opened from open (seeds 1000, 1001, …),
// each given answers oracle answers (fewer if it is done first) and
// then rounds × (perRound answers + one delta of deltaFrac the corpus +
// the ranking over it), then, when ranked, the ranking after the last
// answer.
type probe struct {
	name      string
	sessions  int
	open      service.OpenRequest
	answers   int
	rounds    int
	perRound  int
	deltaFrac float64
	ranked    bool
	out       string
}

func main() {
	runtime.MemProfileRate = 512 // before the first allocation worth attributing
	for _, p := range probes {
		if err := p.run(); err != nil {
			fmt.Fprintln(os.Stderr, "heapprofile:", err)
			os.Exit(1)
		}
	}
}

func (p probe) run() error {
	var store persist.Store = persist.NewMemStore()
	if p.rounds > 0 {
		dir, err := os.MkdirTemp("", "heapprofile")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if store, err = persist.NewFileStore(dir); err != nil {
			return err
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	m := service.NewManager(service.Config{Workers: 2, MaxSessions: p.sessions, Store: store})
	defer m.Shutdown()
	c := service.NewLocalClient(m)
	for i := 0; i < p.sessions; i++ {
		if err := p.drive(c, fmt.Sprintf("s%04d", i), int64(1000+i)); err != nil {
			return err
		}
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	f, err := os.Create(p.out)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	live := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	answers := fmt.Sprint(p.answers + p.rounds*p.perRound)
	if p.answers == math.MaxInt {
		answers = "until done"
	}
	fmt.Printf("%-16s  sessions %d  answers %s  deltas %d  HeapAlloc %.1f MB  %.1f KB/session  (%s)\n",
		p.name, m.Len(), answers, p.rounds, live/(1<<20), live/1024/float64(p.sessions), p.out)
	r := releasedTables(m)
	fmt.Printf("%-16s  what-if workers parked on the free list: %d; Gibbs chains with their run table released: %d of %d; databases with their base released: %d of %d; gain caches holding no entry: %d of %d\n",
		"", len(guidance.IdleWorkers()), r.chainsReleased, r.chains, r.basesReleased, r.dbs, r.cachesReleased, r.caches)
	return nil
}

// released counts the Gibbs chains, fact databases and gain caches
// reachable from a value, and those of them that have released their
// tables.
type released struct {
	chains, chainsReleased, dbs, basesReleased, caches, cachesReleased int
}

// releasedTables counts the Gibbs chains, databases and gain caches
// reachable from v through pointers, interfaces, struct fields, slice,
// array and map elements, and those of them whose run table, base or
// entries are released. Values that hold no pointer are not entered, so
// a corpus's flat tables cost nothing.
func releasedTables(v any) (r released) {
	chainType := reflect.TypeOf(&gibbs.Chain{})
	dbType := reflect.TypeOf(&factdb.DB{})
	cacheType := reflect.TypeOf(&guidance.GainCache{})
	seen := map[[2]any]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if !v.IsValid() || !holdsPointers(v.Type()) {
			return
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice:
			if v.IsNil() {
				return
			}
			key := [2]any{v.Pointer(), v.Type()}
			if seen[key] {
				return
			}
			seen[key] = true
		}
		// NewAt re-types a pointer: a value read through an unexported
		// field does not allow Interface.
		switch v.Type() {
		case chainType:
			r.chains++
			if reflect.NewAt(chainType.Elem(), v.UnsafePointer()).Interface().(*gibbs.Chain).Released() {
				r.chainsReleased++
			}
			return
		case dbType:
			r.dbs++
			if reflect.NewAt(dbType.Elem(), v.UnsafePointer()).Interface().(*factdb.DB).BaseReleased() {
				r.basesReleased++
			}
			return
		case cacheType:
			r.caches++
			if reflect.NewAt(cacheType.Elem(), v.UnsafePointer()).Interface().(*guidance.GainCache).Entries() == 0 {
				r.cachesReleased++
			}
			return
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if !holdsPointers(v.Type().Elem()) {
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(v))
	return r
}

// holdsPointers reports whether a value of type t can refer to another
// value: whether it is, or contains, a pointer, interface, slice, map,
// channel or function.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	}
	return false
}

// drive runs one session's script.
func (p probe) drive(c *service.Client, id string, seed int64) error {
	req := p.open
	req.Seed = seed
	s := service.Script{Client: c}
	if _, err := s.Open(id, req); err != nil {
		return err
	}
	if _, err := s.Answers(p.answers); err != nil {
		return err
	}
	for r := 0; r < p.rounds; r++ {
		if _, err := s.Answers(p.perRound); err != nil {
			return err
		}
		if _, _, err := s.Ingest(p.deltaFrac, stats.StreamSeed(uint64(seed), uint64(r))); err != nil {
			return err
		}
		if _, err := c.Next(id, 1); err != nil {
			return err
		}
	}
	if p.ranked {
		if _, err := c.Next(id, 1); err != nil {
			return err
		}
	}
	return nil
}
