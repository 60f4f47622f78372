package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"testing"

	"factcheck/internal/gibbs"
	"factcheck/internal/sim"
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
// ingesting the deltas at their positions. With handOff, the session is
// replaced after every answer and every ingest by its own restoration
// from the state image over a freshly generated corpus, and checked
// there against replay (handOff).
func runGolden(t *testing.T, name string, base synth.Profile, gen func() *synth.Corpus, opts Options, deltas []goldenDelta, handOff bool) goldenTrace {
	t.Helper()
	corpus := gen()
	s, err := OpenSession(corpus.DB, opts)
	if err != nil {
		t.Fatalf("%s: open: %v", name, err)
	}
	user := &sim.Oracle{Truth: corpus.Truth}
	var ho *handOffs
	if handOff {
		twin, err := OpenSession(gen().DB, opts)
		if err != nil {
			t.Fatalf("%s: open twin: %v", name, err)
		}
		ho = &handOffs{name: name, gen: gen, opts: opts, twin: twin}
	}
	prof := base.At(corpus.DB.Stats())
	h := fnv.New64a()
	var buf [8]byte
	for done := false; !done; {
		for len(deltas) > 0 && deltas[0].after == len(s.History()) {
			d := synth.GenerateDelta(prof, deltas[0].frac, deltas[0].seed)
			if _, err := s.Ingest(d); err != nil {
				t.Fatalf("%s: ingest after %d answers: %v", name, deltas[0].after, err)
			}
			user.Truth = append(user.Truth, d.Truth...)
			prof = base.At(s.DB.Stats())
			deltas = deltas[1:]
			if ho != nil {
				if _, err := ho.twin.Ingest(d); err != nil {
					t.Fatalf("%s: twin ingest: %v", name, err)
				}
				s = ho.handOff(t, s, true)
			}
		}
		done = s.Step(user)
		if ho != nil {
			ho.twin.Step(user)
			s = ho.handOff(t, s, done)
		}
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

// handOffs is the reference side of a hand-off run. twin is replay in
// its incremental form: an uninterrupted session over its own corpus
// that takes every ingest and every answer the handed-off session
// takes, one Step per Step — which is what RestoreSession's replay loop
// does with a transcript. It is the reference at every hand-off; the
// replay loop itself is the second reference after every ingest and at
// the end of the session (one at every hand-off would replay O(n²)
// steps).
type handOffs struct {
	name string
	gen  func() *synth.Corpus
	opts Options
	twin *Session
	n    int
}

// handOff snapshots s — after computing its next ranking at every other
// hand-off, so images with and without a pending ranking both occur —
// and restores it from the state image over a fresh corpus. The
// restored session must be the session replay builds (assertSameState;
// with replayed, RestoreSession's replay of the bare transcript too)
// and carries on in s's place.
func (h *handOffs) handOff(t *testing.T, s *Session, replayed bool) *Session {
	t.Helper()
	at := fmt.Sprintf("%s hand-off %d", h.name, h.n)
	if h.n%2 == 1 {
		if _, err := s.Pending(0); err != nil {
			t.Fatalf("%s: pending: %v", at, err)
		}
	}
	snap := s.Snapshot()
	restored, err := RestoreSession(h.gen().DB, h.opts, snap)
	if err != nil {
		t.Fatalf("%s: restore from image: %v", at, err)
	}
	if r := restored.Restored(); !r.Image || r.Replayed != 0 {
		t.Fatalf("%s: restore took %+v, want the image and no replay", at, r)
	}
	assertSameState(t, at, restored, h.twin)
	if replayed {
		snap.Image = nil
		ref, err := RestoreSession(h.gen().DB, h.opts, snap)
		if err != nil {
			t.Fatalf("%s: restore by replay: %v", at, err)
		}
		if r := ref.Restored(); r.Image || r.Reason != ReplayNoImage || r.Replayed != len(snap.Elicitations) {
			t.Fatalf("%s: reference restore took %+v, want a full replay", at, r)
		}
		assertSameState(t, at+" (replayed)", restored, ref)
	}
	h.n++
	return restored
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
	checkGolden(t, nil, false)
}

// assertSameState checks that two sessions are the same function of
// their transcript; both are ranked first so that a computed ranking on
// one side is compared with the ranking the other computes. Beyond the
// fields compared by name, the sessions must encode to the same state
// image — posterior bits, labels, θ, the chain and its RNG, Ω*, both
// session RNG states, the pending ranking, history, grounding — except
// for the gain cache's entries: a ranking that an ingest discarded
// leaves its (exact, but extra) entries behind in the session that
// computed it, and a replay never computes it. Epochs must agree, which
// the per-component sweep seeds show.
func assertSameState(t *testing.T, at string, a, b *Session) {
	t.Helper()
	ra, errA := a.Pending(0)
	rb, errB := b.Pending(0)
	if errA != nil || errB != nil {
		t.Fatalf("%s: pending: %v / %v", at, errA, errB)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%s: pending ranking diverged:\n a=%v\n b=%v", at, ra, rb)
	}
	if !reflect.DeepEqual(a.History(), b.History()) {
		t.Fatalf("%s: history diverged", at)
	}
	// rngAtRank is state only while a ranking is cached; a Done session
	// ranks nothing, and one side may keep a consumed round's value.
	if *a.rng != *b.rng || a.pendingOK && a.rngAtRank != b.rngAtRank {
		t.Fatalf("%s: session RNG diverged", at)
	}
	for c := 0; c < a.DB.NumClaims; c++ {
		if math.Float64bits(a.State.P(c)) != math.Float64bits(b.State.P(c)) {
			t.Fatalf("%s: P(%d) diverged: %v vs %v", at, c, a.State.P(c), b.State.P(c))
		}
	}
	if (a.gains == nil) != (b.gains == nil) {
		t.Fatalf("%s: one session caches gains, the other does not", at)
	}
	for comp := 0; a.gains != nil && comp < a.DB.NumComponents(); comp++ {
		if a.gains.SweepSeed(comp) != b.gains.SweepSeed(comp) {
			t.Fatalf("%s: gain-cache epochs of component %d diverged", at, comp)
		}
	}
	if !bytes.Equal(imageSansGains(a), imageSansGains(b)) {
		t.Fatalf("%s: sessions encode to different state images", at)
	}
}

// imageSansGains is the session's state image without the header's
// payload length and checksum and without the gain cache's section.
func imageSansGains(s *Session) []byte {
	img := s.appendImage()
	img = append(img[:40:40], img[imageHeaderLen:]...)
	if s.gains != nil {
		g := s.gains.AppendImage(nil)
		i := bytes.Index(img, g)
		img = append(img[:i:i], img[i+len(g):]...)
	}
	return img
}

// TestGoldenSelectionTraceHandOff makes "image ≡ replay" mechanical:
// the three golden sessions, handed off at every answer and every
// ingest to a session restored from the state image, must land on the
// unchanged golden file — and at each hand-off the image-restored
// session must equal its replay-restored twin.
func TestGoldenSelectionTraceHandOff(t *testing.T) {
	checkGolden(t, nil, true)
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
	checkGolden(t, l, false)
	if l.out != 0 {
		t.Fatalf("%d lanes never returned", l.out)
	}
}

// checkGolden runs the three golden sessions — under lanes, when set,
// with every section asking for four workers; handed off at every step
// with handOff — and compares them with testdata/golden_trace.json,
// whose hash must be the trace fingerprint state images carry.
func checkGolden(t *testing.T, lanes gibbs.Lender, handOff bool) {
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
		runGolden(t, "connected", connected, func() *synth.Corpus { return synth.Generate(connected, 3101) },
			Options{Seed: 3102, Workers: workers(1), Lanes: lanes}, nil, handOff),
		runGolden(t, "communities", communities, func() *synth.Corpus { return synth.GenerateCommunities(communities, 12, 3201) },
			Options{Seed: 3202, Workers: workers(2), Lanes: lanes, FullSweepEvery: 16}, nil, handOff),
		runGolden(t, "ingest", communities, func() *synth.Corpus { return synth.GenerateCommunities(communities, 12, 3301) },
			Options{Seed: 3302, Workers: workers(1), Lanes: lanes, FullSweepEvery: 16, CandidatePool: 16},
			[]goldenDelta{{after: 9, frac: 0.05, seed: 3303}, {after: 30, frac: 0.05, seed: 3304}}, handOff),
	}

	raw, err := os.ReadFile("testdata/golden_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	if h.Sum64() != traceFingerprint {
		t.Errorf("testdata/golden_trace.json hashes to %#016x but state images carry traceFingerprint %#016x: "+
			"a change that moves traces must move the fingerprint with the file, so images written before it stop restoring",
			h.Sum64(), traceFingerprint)
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
