package optimize_test

import (
	"math"
	"slices"
	"testing"

	"factcheck/internal/crf"
	"factcheck/internal/em"
	"factcheck/internal/optimize"
	"factcheck/internal/service"
	"factcheck/internal/sim"
)

// servedWork is what one served session's M-steps did: the engine's own
// counters, and what replaying every M-step beside the session found.
type servedWork struct {
	answers, sweeps int
	work            em.MStepWork
	rows            int       // examples over all solves
	unconverged     int       // solves stopped by the Newton cap
	maxIterations   int       // most Newton iterations one solve took
	clamped         int       // solves the trust-weight projection moved
	rise            []float64 // f(projected W) − f(W) per clamped solve
	relRise         []float64 // the same over f(W)
}

// driveServed runs one session of the served shape req with an oracle
// user for up to answers answers (0: until done). After every answer
// that ran a full EM sweep it replays the sweep's M-steps from the θ
// the session held before the answer — they read only the labels and θ
// (em.Engine.infer), so the replay is exact — and checks that each
// Minimize equals the reference objective's, result and pass counts
// alike, never returns f(W) above f(w₀), and that the replay ends on the
// engine's θ to the bit.
func driveServed(t *testing.T, req service.OpenRequest, answers int) servedWork {
	t.Helper()
	s, corpus, err := service.BuildSession(req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Engine.Config()
	oracle := &sim.Oracle{Truth: corpus.Truth}
	var out servedWork
	for done := false; !done && (answers <= 0 || out.answers < answers); out.answers++ {
		theta, before := s.Engine.Theta(), s.Engine.MStepWork().Solves
		done = s.Step(oracle)
		solves := s.Engine.MStepWork().Solves - before
		if solves == 0 {
			continue
		}
		out.sweeps++
		p := make([]float64, corpus.DB.NumClaims)
		for c := range p {
			p[c] = 0.5
			if v, ok := s.State.Label(c); ok {
				p[c] = 0
				if v {
					p[c] = 1
				}
			}
		}
		prob := s.Engine.Model().MStepProblem(s.State, p, crf.MStepOptions{
			Lambda: cfg.Lambda, LabelWeight: cfg.LabelWeight, UnlabeledWeight: cfg.UnlabeledWeight,
		})
		n := float64(s.State.NumLabeled())
		anchor := n / (n + cfg.AnchorPrior)
		tc := cfg.TrustCap * anchor
		for it := 0; it < solves; it++ {
			f0 := prob.Value(theta)
			res := optimize.Minimize(prob, theta, cfg.Tron)
			ref := optimize.Minimize(optimize.ReferenceOf(prob), theta, cfg.Tron)
			if res.Iterations != ref.Iterations || res.Passes != ref.Passes ||
				math.Float64bits(res.Value) != math.Float64bits(ref.Value) || !sameBits(res.W, ref.W) {
				t.Fatalf("answer %d solve %d: Minimize %+v, reference %+v", out.answers, it, res, ref)
			}
			if res.Value > f0 {
				t.Fatalf("answer %d solve %d: f rose from %v to %v", out.answers, it, f0, res.Value)
			}
			out.work.Solves++
			out.work.Passes.Value += res.Passes.Value
			out.work.Passes.Gradient += res.Passes.Gradient
			out.work.Passes.HessianVec += res.Passes.HessianVec
			out.work.RowPasses += int64(prob.Len()) * int64(res.Passes.Total())
			out.rows += prob.Len()
			out.maxIterations = max(out.maxIterations, res.Iterations)
			if !res.Converged {
				out.unconverged++
			}
			w := res.W
			if ti := len(w) - 1; w[ti] > tc || w[ti] < -tc {
				w[ti] = math.Copysign(tc, w[ti])
				f := prob.Value(w)
				out.clamped++
				out.rise = append(out.rise, f-res.Value)
				out.relRise = append(out.relRise, (f-res.Value)/res.Value)
			}
			theta = w
		}
		if got := s.Engine.Theta(); !sameBits(got, theta) {
			t.Fatalf("answer %d: replayed θ %v, engine θ %v", out.answers, theta, got)
		}
	}
	if got := s.Engine.MStepWork(); got != out.work {
		t.Fatalf("engine counted %+v, the replay %+v", got, out.work)
	}
	return out
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestServedMStepWork shows the M-step as counted work on the served
// guided-incremental and fleet-churn shapes (bench/workloads.go): TRON
// solves, Value / Gradient / HessianVec passes per solve, and rows ×
// passes per answer — the same counts as the reference objective, which
// makes the new form's saving cheaper work, not less work. It also logs
// how often, and how far, the trust-weight projection of em.Engine.infer
// raises f above the solver's optimum (ROADMAP item 3(d)). Two runs of
// one seed must count the same. Run with -v to read the log.
func TestServedMStepWork(t *testing.T) {
	shapes := []struct {
		name    string
		req     service.OpenRequest
		answers int
	}{
		{"guided-incremental", service.OpenRequest{Profile: "wiki", Scale: 2, Communities: 12, FullSweepEvery: 16, Seed: 5}, 0},
		{"fleet-churn", service.OpenRequest{Profile: "wiki", Scale: 0.5, Communities: 4, Strategy: "uncertainty", Seed: 5}, 8},
	}
	for _, sh := range shapes {
		a := driveServed(t, sh.req, sh.answers)
		if b := driveServed(t, sh.req, sh.answers); b.work != a.work {
			t.Fatalf("%s: two runs of seed %d counted %+v and %+v", sh.name, sh.req.Seed, a.work, b.work)
		}
		w := a.work
		if w.Solves == 0 {
			t.Fatalf("%s: no M-step ran in %d answers", sh.name, a.answers)
		}
		per := func(v int) float64 { return float64(v) / float64(w.Solves) }
		t.Logf("%s (seed %d): %d answers, %d full sweeps, %d solves; per solve %.1f Value, %.1f Gradient, %.1f HessianVec passes over %.0f rows; %.0f row-passes per answer",
			sh.name, sh.req.Seed, a.answers, a.sweeps, w.Solves, per(w.Passes.Value), per(w.Passes.Gradient), per(w.Passes.HessianVec),
			per(a.rows), float64(w.RowPasses)/float64(a.answers))
		t.Logf("%s: %d of %d solves stopped by the %d-iteration Newton cap; at most %d iterations",
			sh.name, a.unconverged, w.Solves, em.DefaultConfig().Tron.MaxIter, a.maxIterations)
		if a.clamped > 0 {
			slices.Sort(a.rise)
			slices.Sort(a.relRise)
			t.Logf("%s: the trust-weight projection moved %d of %d solves; f(projected) − f(W): median %.3g, max %.3g (relative: median %.3g, max %.3g)",
				sh.name, a.clamped, w.Solves, a.rise[len(a.rise)/2], a.rise[len(a.rise)-1], a.relRise[len(a.relRise)/2], a.relRise[len(a.relRise)-1])
		} else {
			t.Logf("%s: the trust-weight projection moved none of %d solves", sh.name, w.Solves)
		}
	}
}
