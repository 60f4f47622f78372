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
//     and one 2 % delta, on a file store in a temporary directory — the
//     served shape: every delta crosses a JSON decode on its way in and
//     the store keeps nothing of it in memory.
//
// `make heap-profile` runs it and writes the text listings next to the
// profiles.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"factcheck/internal/factdb"
	"factcheck/internal/persist"
	"factcheck/internal/service"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
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
}

// probe is one row: sessions opened from open (seeds 1000, 1001, …),
// each given answers oracle answers and then rounds × (perRound answers
// + one delta of deltaFrac the corpus + the ranking over it).
type probe struct {
	name      string
	sessions  int
	open      service.OpenRequest
	answers   int
	rounds    int
	perRound  int
	deltaFrac float64
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
	for i := 0; i < p.sessions; i++ {
		if err := p.drive(m, fmt.Sprintf("s%04d", i), int64(1000+i)); err != nil {
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
	fmt.Printf("%-16s  sessions %d  answers %d  deltas %d  HeapAlloc %.1f MB  %.1f KB/session  (%s)\n",
		p.name, m.Len(), p.answers+p.rounds*p.perRound, p.rounds, live/(1<<20), live/1024/float64(p.sessions), p.out)
	return nil
}

// drive runs one session's script against the manager.
func (p probe) drive(m *service.Manager, id string, seed int64) error {
	ctx := context.Background()
	req := p.open
	req.Seed = seed
	info, err := m.OpenAs(id, req)
	if err != nil {
		return err
	}
	answer := func(n int) error {
		for a := 0; a < n; a++ {
			next, err := m.NextCtx(ctx, id, 1)
			if err != nil || next.Done {
				return err
			}
			if _, err := m.AnswerCtx(ctx, id, service.AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := answer(p.answers); err != nil || p.rounds == 0 {
		return err
	}
	shape, err := synth.ByName(req.Profile)
	if err != nil {
		return err
	}
	shape.Claims, shape.Sources, shape.Documents = info.Claims, info.Sources, info.Documents
	for r := 0; r < p.rounds; r++ {
		if err := answer(p.perRound); err != nil {
			return err
		}
		// The delta arrives the way a served one does: through a JSON
		// decode, per-row slices and their growth slack included.
		wire, err := json.Marshal(synth.GenerateDelta(shape, p.deltaFrac, stats.StreamSeed(uint64(seed), uint64(r))))
		if err != nil {
			return err
		}
		var d factdb.Delta
		if err := json.Unmarshal(wire, &d); err != nil {
			return err
		}
		resp, err := m.IngestCtx(ctx, id, service.IngestRequest{Delta: d})
		if err != nil {
			return err
		}
		shape.Claims, shape.Sources, shape.Documents = resp.Claims, resp.Sources, resp.Documents
		if _, err := m.NextCtx(ctx, id, 1); err != nil {
			return err
		}
	}
	return nil
}
