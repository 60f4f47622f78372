package service

import (
	"fmt"
	"sync"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// scratchArm is one session of TestWhatIfScratchSharingIsExact: its open
// request and its script, steps long, every ingestEvery-th step a 4 %
// delta and every other one an oracle answer.
type scratchArm struct {
	name        string
	req         OpenRequest
	steps       int
	ingestEvery int // 0: never
}

// scratchRun is an arm's session part-way through its script.
type scratchRun struct {
	arm    scratchArm
	s      *core.Session
	oracle *sim.Oracle
	shape  synth.Profile
}

func (a scratchArm) start() (*scratchRun, error) {
	s, corpus, err := BuildSession(a.req, nil, nil)
	if err != nil {
		return nil, err
	}
	prof, err := synth.ByName(a.req.Profile)
	if err != nil {
		return nil, err
	}
	return &scratchRun{arm: a, s: s, oracle: &sim.Oracle{Truth: corpus.Truth}, shape: prof.At(s.DB.Stats())}, nil
}

// step takes the script's step i.
func (r *scratchRun) step(i int) error {
	if k := r.arm.ingestEvery; k > 0 && i%k == k-1 {
		d := synth.GenerateDelta(r.shape, 0.04, stats.StreamSeed(uint64(r.arm.req.Seed), uint64(i)))
		if _, err := r.s.Ingest(d); err != nil {
			return fmt.Errorf("%s, step %d: %w", r.arm.name, i, err)
		}
		r.oracle.Truth = append(r.oracle.Truth, d.Truth...)
		r.shape = r.shape.At(r.s.DB.Stats())
		return nil
	}
	r.s.Step(r.oracle)
	return nil
}

// trace is the session's transcript, posteriors and next ranking.
func (r *scratchRun) trace() (sessionTrace, error) {
	tr := libraryTrace(r.s, r.oracle.Truth)
	var err error
	tr.rank, err = r.s.Pending(0)
	return tr, err
}

// TestWhatIfScratchSharingIsExact: what-if scoring lanes come off one
// process-wide free list (guidance.Pool), and a lane's chain adopts
// whichever session borrows it — so its buffers were last sized for
// another session, larger or smaller. Sessions of three sizes — the
// streaming-ingest shape growing by Ingest, and hybrid sessions at
// scale 0.3 and 0.1 — driven step by step in turn, and then all at
// once, must each end on the transcript, ranking and posteriors it
// reaches alone. A lane that kept a shard order or agreement counters
// sized for its previous session would index past them or score from
// stale counts.
func TestWhatIfScratchSharingIsExact(t *testing.T) {
	arms := []scratchArm{
		{name: "small hybrid", req: OpenRequest{Profile: "wiki", Scale: 0.1, Seed: 811}, steps: 8},
		{name: "scale-0.3 hybrid", req: OpenRequest{Profile: "wiki", Scale: 0.3, Seed: 812}, steps: 8},
		{name: "streaming-ingest", req: OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16, Seed: 813}, steps: 12, ingestEvery: 3},
	}
	if raceEnabled || testing.Short() {
		for i := range arms {
			arms[i].req.EM = fastEM()
		}
	}
	solo := make([]sessionTrace, len(arms))
	for i, a := range arms {
		r, err := a.start()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < a.steps; k++ {
			if err := r.step(k); err != nil {
				t.Fatal(err)
			}
		}
		if solo[i], err = r.trace(); err != nil {
			t.Fatal(err)
		}
	}

	runs := make([]*scratchRun, len(arms))
	longest := 0
	for i, a := range arms {
		var err error
		if runs[i], err = a.start(); err != nil {
			t.Fatal(err)
		}
		longest = max(longest, a.steps)
	}
	for k := 0; k < longest; k++ {
		for _, r := range runs {
			if k < r.arm.steps {
				if err := r.step(k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, r := range runs {
		got, err := r.trace()
		if err != nil {
			t.Fatal(err)
		}
		t.Run("in turn/"+r.arm.name, func(t *testing.T) { assertSameTrace(t, got, solo[i]) })
	}

	got := make([]sessionTrace, len(arms))
	errs := make([]error, len(arms))
	var wg sync.WaitGroup
	for i, a := range arms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.start()
			for k := 0; err == nil && k < a.steps; k++ {
				err = r.step(k)
			}
			if err == nil {
				got[i], err = r.trace()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, a := range arms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		t.Run("at once/"+a.name, func(t *testing.T) { assertSameTrace(t, got[i], solo[i]) })
	}
}
