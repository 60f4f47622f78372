package service

import (
	"fmt"
	"runtime"
	"testing"

	"factcheck/internal/persist"
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
// averaged over 64 sessions. The flat corpus tables put it at ≈ 250 KB
// (≈ 430 with a heap slice per feature vector and reference list); the
// ceiling leaves room for allocator and runtime drift, not for a
// per-row allocation coming back. Not parallel: it reads process-wide
// heap statistics.
func TestLiveSessionFootprint(t *testing.T) {
	const sessions, ceilingKB = 64, 300
	m := NewManager(Config{Workers: 2, MaxSessions: sessions, Store: persist.NewMemStore()})
	defer m.Shutdown()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		if _, err := m.OpenAs(fmt.Sprintf("s%02d", i), fleetChurnOpen(int64(500+i))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1024 / sessions
	t.Logf("%.1f KB of live heap per fleet-churn session", perSession)
	if perSession > ceilingKB {
		t.Errorf("a live fleet-churn session holds %.1f KB, ceiling %d KB", perSession, ceilingKB)
	}
	runtime.KeepAlive(m)
}

// TestBuildCorpusAllocations bounds the allocations of generating the
// fleet-churn corpus — every open, revive and migration pays them — and
// reports the two larger benchmark shapes beside it. What remains is
// the hyperlink graph's adjacency lists and the per-row
// ClaimSources/SourceClaims index; a per-document or per-source
// allocation coming back shows as thousands.
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
	if fleet >= 6000 {
		t.Errorf("BuildCorpus of the fleet-churn request allocates %.0f times, want under 6000", fleet)
	}
}
