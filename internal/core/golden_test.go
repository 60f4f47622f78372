package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"testing"

	"factcheck/internal/gibbs"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// goldenTrace is one session's absolute fingerprint: the claims asked,
// in order, and an FNV-1a hash folded over the bit patterns of every
// posterior after every answer (so its last value covers the final
// posteriors and every state on the way there).
type goldenTrace struct {
	Name       string `json:"name"`
	Claims     []int  `json:"claims"`
	Posteriors string `json:"posteriors"`
}

// goldenDelta is a corpus delta ingested once after answers have been
// given.
type goldenDelta struct {
	after int
	frac  float64
	seed  int64
}

// runGolden answers a session by oracle until every claim is labelled,
// ingesting the deltas at their positions.
func runGolden(t *testing.T, name string, base synth.Profile, corpus *synth.Corpus, opts Options, deltas []goldenDelta) goldenTrace {
	t.Helper()
	s, err := OpenSession(corpus.DB, opts)
	if err != nil {
		t.Fatalf("%s: open: %v", name, err)
	}
	truth := append([]bool(nil), corpus.Truth...)
	user := &liveOracle{&truth}
	prof := deltaShape(base, corpus.DB)
	h := fnv.New64a()
	var buf [8]byte
	for done := false; !done; {
		for len(deltas) > 0 && deltas[0].after == len(s.History()) {
			d := synth.GenerateDelta(prof, deltas[0].frac, deltas[0].seed)
			if _, err := s.Ingest(d); err != nil {
				t.Fatalf("%s: ingest after %d answers: %v", name, deltas[0].after, err)
			}
			truth = append(truth, d.Truth...)
			prof = deltaShape(base, s.DB)
			deltas = deltas[1:]
		}
		done = s.Step(user)
		for c := 0; c < s.DB.NumClaims; c++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.State.P(c)))
			h.Write(buf[:])
		}
	}
	if len(deltas) != 0 {
		t.Fatalf("%s: %d deltas never ingested", name, len(deltas))
	}
	tr := goldenTrace{Name: name, Posteriors: fmt.Sprintf("%016x", h.Sum64())}
	for _, v := range s.History() {
		tr.Claims = append(tr.Claims, v.Claim)
	}
	return tr
}

// TestGoldenSelectionTrace pins the sampler's arithmetic absolutely.
// Every other determinism test in the repo is relative (workers 1 vs 4,
// cache on vs off, served vs library) and would pass a kernel that
// changed its numerics consistently; this one compares fixed-seed
// sessions against testdata/golden_trace.json, which was generated
// before the flat run table and the sigmoid squeeze replaced the
// per-claim run slices (DESIGN.md §7). The three sessions cover the
// served shapes: one connected component under the default cadence, 12
// communities with a full sweep every 16th answer, and the same with a
// bounded candidate pool and two corpus deltas ingested mid-session.
// A failure means selection traces moved: a kernel change must not
// regenerate this file.
func TestGoldenSelectionTrace(t *testing.T) {
	checkGolden(t, nil)
}

// randomLender grants a seeded random 0…want lanes on every Borrow and
// keeps the balance, so a section that forgets its Return is caught.
type randomLender struct {
	rng *stats.RNG
	out int
}

func (l *randomLender) Borrow(want int) int {
	n := l.rng.Intn(want + 1)
	l.out += n
	return n
}

func (l *randomLender) Return(n int) { l.out -= n }

// TestGoldenSelectionTraceUnderRandomLender is what makes "any grant is
// trace-neutral" mechanical: the same three sessions, asked for four
// workers, with every parallel section (sharded E-step, what-if scoring
// round) lent an arbitrary number of them, must still land on the
// golden file.
func TestGoldenSelectionTraceUnderRandomLender(t *testing.T) {
	l := &randomLender{rng: stats.NewRNG(3401)}
	checkGolden(t, l)
	if l.out != 0 {
		t.Fatalf("%d lanes never returned", l.out)
	}
}

// checkGolden runs the three golden sessions — under lanes, when set,
// with every section asking for four workers — and compares them with
// testdata/golden_trace.json.
func checkGolden(t *testing.T, lanes gibbs.Lender) {
	t.Helper()
	workers := func(n int) int {
		if lanes != nil {
			return 4
		}
		return n
	}
	connected := synth.Wikipedia.Scaled(0.4)
	communities := synth.Wikipedia.Scaled(0.8)
	got := []goldenTrace{
		runGolden(t, "connected", connected, synth.Generate(connected, 3101),
			Options{Seed: 3102, Workers: workers(1), Lanes: lanes}, nil),
		runGolden(t, "communities", communities, synth.GenerateCommunities(communities, 12, 3201),
			Options{Seed: 3202, Workers: workers(2), Lanes: lanes, FullSweepEvery: 16}, nil),
		runGolden(t, "ingest", communities, synth.GenerateCommunities(communities, 12, 3301),
			Options{Seed: 3302, Workers: workers(1), Lanes: lanes, FullSweepEvery: 16, CandidatePool: 16},
			[]goldenDelta{{after: 9, frac: 0.05, seed: 3303}, {after: 30, frac: 0.05, seed: 3304}}),
	}

	raw, err := os.ReadFile("testdata/golden_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("testdata/golden_trace.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		out, _ := json.Marshal(got) // marshalling ints and strings cannot fail
		t.Errorf("selection traces moved off the golden file; got\n%s", out)
	}
}
