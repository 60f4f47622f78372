// heapprofile is the footprint probe behind ROADMAP item 6: it opens
// sessions of the fleet-churn shape (wiki × 0.5, 4 communities,
// uncertainty ranking) on an in-memory store, answers each a few times
// from the oracle, forces two collections, and reports what stays live
// — runtime HeapAlloc per session, and a pprof heap profile sampled
// finely enough (MemProfileRate 512) to attribute it to allocation
// sites with `pprof -top -sample_index=inuse_space`. `make heap-profile`
// runs it and writes the text listing next to the profile.
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"factcheck/internal/persist"
	"factcheck/internal/service"
)

// The probe's shape is fixed so its per-session number stays comparable
// with the per-owner table in ROADMAP item 6.
const (
	sessions = 400 // live sessions held
	answers  = 8   // oracle answers per session
	out      = "profiles/heap.prof"
)

func main() {
	runtime.MemProfileRate = 512 // before the first allocation worth attributing

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	m := service.NewManager(service.Config{Workers: 2, MaxSessions: sessions, Store: persist.NewMemStore()})
	defer m.Shutdown()
	ctx := context.Background()
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%04d", i)
		req := service.OpenRequest{Profile: "wiki", Scale: 0.5, Communities: 4, Strategy: "uncertainty", Seed: int64(1000 + i)}
		if _, err := m.OpenAs(id, req); err != nil {
			fatal(err)
		}
		for a := 0; a < answers; a++ {
			next, err := m.NextCtx(ctx, id, 1)
			if err != nil {
				fatal(err)
			}
			if next.Done {
				break
			}
			if _, err := m.AnswerCtx(ctx, id, service.AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true}); err != nil {
				fatal(err)
			}
		}
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	live := float64(after.HeapAlloc - before.HeapAlloc)
	fmt.Printf("sessions %d  answers %d  HeapAlloc %.1f MB  %.1f KB/session\n",
		m.Len(), answers, live/(1<<20), live/1024/sessions)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heapprofile:", err)
	os.Exit(1)
}
