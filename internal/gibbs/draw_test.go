package gibbs

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"factcheck/internal/crf"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

// ulpsAround returns x and its three neighbours on either side.
func ulpsAround(x float64) []float64 {
	out := []float64{x}
	for lo, hi, i := x, x, 0; i < 3; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// checkDraw holds the sweep's decision to its definition on every claim
// of ch, in its current state and with the sources of the claim's runs
// pushed to both agreement extremes (see extremeState): draw(u, c) ==
// (u < Sigmoid(LogOdds(c))) for the caller's us and for the us where a
// stage can go wrong — the decision boundary itself, the boundary ±
// sigmoidSlack, both ends of the widened table bracket and both static
// thresholds, each ± 0–3 ulps. What static or bracket decides alone must
// be the same decision, bracket's of a log-odds on the grid.
func checkDraw(t testing.TB, ch *Chain, us []float64) {
	t.Helper()
	saved := append([]bool(nil), ch.x...)
	for c := range ch.x {
		checkClaim(t, ch, c, us)
		for _, agree := range []bool{true, false} {
			extremeState(ch, c, agree)
			checkClaim(t, ch, c, us)
		}
		for c, v := range saved {
			ch.setValue(c, v)
		}
	}
}

func checkClaim(t testing.TB, ch *Chain, c int, us []float64) {
	t.Helper()
	l := ch.LogOdds(c)
	p := stats.Sigmoid(l)
	cand := append([]float64(nil), us...)
	for _, b := range []float64{p, p - sigmoidSlack, p + sigmoidSlack, float64(ch.claims[c].uLo), float64(ch.claims[c].uHi)} {
		cand = append(cand, ulpsAround(b)...)
	}
	if fl, d := ch.fastLogOdds(c); fl-d > -12 && fl+d < 12 {
		cand = append(cand, ulpsAround(sigmoidTab[sigmoidCell(fl-d)]-sigmoidSlack)...)
		cand = append(cand, ulpsAround(sigmoidTab[sigmoidCell(fl+d)+1]+sigmoidSlack)...)
	}
	for _, u := range cand {
		want := u < p
		if got := ch.draw(u, c, ch.fresh()); got != want {
			t.Fatalf("claim %d: draw(%v) = %v, want %v (LogOdds %v, θ_T %v, u bits %#x)",
				c, u, got, want, l, ch.trustW, math.Float64bits(u))
		}
		if v, ok := ch.Static(u, c); ok && v != want {
			t.Fatalf("claim %d: static decided %v for u = %v; LogOdds %v, thresholds [%v, %v), want %v",
				c, v, u, l, ch.claims[c].uLo, ch.claims[c].uHi, want)
		}
		if v, ok := ch.bracket(u, c); ok && (v != want || !(l > -12 && l < 12)) {
			t.Fatalf("claim %d: bracket decided %v for u = %v; LogOdds %v, want %v", c, v, u, l, want)
		}
	}
}

// extremeState sets every claim but c to the value its cliques from the
// sources of c's runs mostly vote for (agree) or against: where those
// cliques sit one to a claim, or with one stance per claim, each source
// ends at either end of the range the static interval spans.
func extremeState(ch *Chain, c int, agree bool) {
	runSrc, cliques := ch.src[ch.claims[c].off:ch.claims[c+1].off], ch.db.Rows().Cliques
	for o := range ch.db.NumClaims {
		if o == c {
			continue
		}
		vote := 0
		for _, ci := range ch.db.ClaimCliques(o) {
			if cl := cliques[ci]; slices.Contains(runSrc, cl.Source) {
				vote += int(cl.Stance.Sign())
			}
		}
		ch.setValue(o, (vote >= 0) == agree)
	}
}

// checkStaticUndecided fails if the static stage decides any draw of ch.
func checkStaticUndecided(t testing.TB, ch *Chain, why string) {
	t.Helper()
	for c := range ch.x {
		for _, u := range []float64{0, 0x1p-53, 0.25, 0.5, 0.75, 1 - 0x1p-53} {
			if _, ok := ch.Static(u, c); ok {
				t.Fatalf("%s: static decided claim %d for u = %v", why, c, u)
			}
		}
	}
}

func uniforms(r *stats.RNG, n int) []float64 {
	us := make([]float64, n)
	for i := range us {
		us[i] = r.Float64()
	}
	return us
}

// growDelta adds a claim and a source to db, and gives old claims new
// cliques from both an old and the new source.
func growDelta(r *stats.RNG, db *factdb.DB) factdb.Delta {
	doc := func(source, claim int, st factdb.Stance) factdb.DeltaDocument {
		return factdb.DeltaDocument{
			Source: source, Features: []float64{r.NormFloat64()},
			Refs: []factdb.DeltaRef{{Claim: claim, Stance: st}},
		}
	}
	return factdb.Delta{
		NewClaims: 1,
		Sources:   []factdb.DeltaSource{{Features: []float64{r.NormFloat64()}}},
		Documents: []factdb.DeltaDocument{
			doc(-1, -1, factdb.Support),
			doc(-1, r.Intn(db.NumClaims), factdb.Refute),
			doc(r.Intn(len(db.Sources)), r.Intn(db.NumClaims), factdb.Support),
			doc(r.Intn(len(db.Sources)), -1, factdb.Refute),
		},
	}
}

// TestDrawMatchesLogOdds: the decision is the definition's, in every
// state a served chain passes through — fresh, with labels frozen, grown
// by a delta, and as a worker clone before and after its resync to a
// later SetModel — with and without a trust term; randomDB(r, 2) gives
// claim 0 a source with no other cliques (a run without a trust term).
// A new or grown chain holds no rows until SetModel builds them, and a
// clone whose θ_T is not the one the thresholds were set for decides
// nothing in the static stage.
func TestDrawMatchesLogOdds(t *testing.T) {
	err := quick.Check(func(seed int64, trust bool) bool {
		r := stats.NewRNG(seed)
		db := randomDB(r, 2)
		ch := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		if !ch.Released() {
			t.Error("a new chain holds tables before SetModel")
			return false
		}
		ch.SetModel(randomModel(r, db, trust))
		checkDraw(t, ch, uniforms(r, 16))

		state := factdb.NewState(db.NumClaims)
		for c := 0; c < db.NumClaims; c++ {
			if r.Bernoulli(0.3) {
				state.SetLabel(c, r.Bernoulli(0.5))
			}
		}
		ch.InitFromState(state)
		ch.Sweep(nil)
		checkDraw(t, ch, uniforms(r, 16))

		if _, err := db.Extend(growDelta(r, db)); err != nil {
			t.Error(err)
			return false
		}
		ch.Grow(stats.NewRNG(int64(r.Uint64())))
		if !ch.Released() {
			t.Error("a grown chain kept the tables of the smaller database")
			return false
		}
		ch.SetModel(randomModel(r, db, trust))
		ch.Sweep(nil)
		checkDraw(t, ch, uniforms(r, 16))

		worker := ch.CloneDetached(7)
		ch.SetModel(randomModel(r, db, true))
		ch.Sweep(nil)
		checkStaticUndecided(t, worker, "clone with a stale θ_T")
		checkDraw(t, worker, uniforms(r, 16))
		worker.CopyStateFrom(ch)
		checkDraw(t, worker, uniforms(r, 16))
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDrawSurvivesHostileModels: parameters no M-step produces — 1e308,
// ±Inf, NaN, as bias, as θ_T and everywhere — and a claim without
// cliques must reach the exact path (checkDraw fails a bracket that
// decides off the grid) and never index the table out of range.
func TestDrawSurvivesHostileModels(t *testing.T) {
	r := stats.NewRNG(20261005)
	for round := 0; round < 20; round++ {
		db := randomDB(r, 1+round%2) // own = 1: a source with one clique
		ch := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		m := randomModel(r, db, true)
		theta := append([]float64(nil), m.Theta...)
		for _, h := range []float64{1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64} {
			for _, at := range [][]int{{0}, {len(theta) - 1}, {0, len(theta) - 1}, {1, 2}} {
				hostile := append([]float64(nil), theta...)
				for _, i := range at {
					hostile[i] = h
				}
				m.SetTheta(hostile)
				ch.SetModel(m)
				checkDraw(t, ch, uniforms(r, 8))
				ch.Sweep(nil)
			}
		}
	}

	// A claim without cliques cannot pass Finalize, but Finalize indexes
	// the cliques before it refuses one, so the chain can still be built
	// over the refused database. LogOdds defines its log-odds as 0.
	db := &factdb.DB{NumClaims: 3}
	db.AddSource(nil)
	for _, c := range []int{0, 2} {
		db.AddDocument(0, nil, factdb.ClaimRef{Claim: c, Stance: factdb.Support})
	}
	if err := db.Finalize(); err == nil {
		t.Fatal("Finalize accepted a claim without cliques")
	}
	ch := NewChain(db, stats.NewRNG(5))
	m := crf.New(db)
	m.SetTheta([]float64{0.7, -0.4})
	ch.SetModel(m)
	if l := ch.LogOdds(1); l != 0 {
		t.Fatalf("LogOdds of a claim without cliques = %v", l)
	}
	if _, ok := ch.bracket(0.25, 1); ok {
		t.Fatal("bracket decided a claim without cliques")
	}
	for _, u := range []float64{0, 0.25, 0.5, 1 - 0x1p-53} {
		if _, ok := ch.Static(u, 1); ok {
			t.Fatal("static decided a claim without cliques")
		}
	}
	checkDraw(t, ch, uniforms(r, 8))
}

// TestStaticIntervalContainsLogOdds: the static interval is an interval,
// and not a lazy one. LogOdds(c) lies in [lo − μ, hi + μ] on random
// chains, in swept states and with the claim's sources at both agreement
// extremes; and a claim with one run, whose source's other cliques sit
// one to a claim, reaches each end to within μ.
func TestStaticIntervalContainsLogOdds(t *testing.T) {
	interval := func(ch *Chain, c int) (lo, hi, mu float64) {
		return ch.staticInterval(c, boundGamma(int(ch.claims[c+1].off-ch.claims[c].off)))
	}
	inside := func(ch *Chain, c int) {
		t.Helper()
		lo, hi, mu := interval(ch, c)
		if l := ch.LogOdds(c); !(l >= lo-mu && l <= hi+mu) {
			t.Fatalf("claim %d: LogOdds %v outside [%v, %v] ± %v (θ_T %v)", c, l, lo, hi, mu, ch.trustW)
		}
	}
	r := stats.NewRNG(20261015)
	for round := 0; round < 300; round++ {
		db := randomDB(r, round%3)
		ch := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		ch.SetModel(randomModel(r, db, round%4 != 0))
		for sweep := 0; sweep < 5; sweep++ {
			ch.Sweep(nil)
			for c := range ch.x {
				inside(ch, c)
				for _, agree := range []bool{true, false} {
					extremeState(ch, c, agree)
					inside(ch, c)
				}
			}
		}
	}

	for round := 0; round < 200; round++ {
		// Source 0 gives claim 0 its one run and each other claim one
		// clique; a second source adds base-only noise elsewhere.
		n := 2 + r.Intn(8)
		db := &factdb.DB{NumClaims: n}
		db.AddSource([]float64{r.NormFloat64()})
		db.AddSource([]float64{r.NormFloat64()})
		stance := func() factdb.Stance {
			if r.Bernoulli(0.4) {
				return factdb.Refute
			}
			return factdb.Support
		}
		for c := 0; c < n; c++ {
			db.AddDocument(0, []float64{r.NormFloat64()}, factdb.ClaimRef{Claim: c, Stance: stance()})
			if c > 0 && r.Bernoulli(0.5) {
				db.AddDocument(1, []float64{r.NormFloat64()}, factdb.ClaimRef{Claim: c, Stance: stance()})
			}
		}
		if err := db.Finalize(); err != nil {
			t.Fatal(err)
		}
		ch := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		ch.SetModel(randomModel(r, db, true))
		var ends [2]float64
		for i, agree := range []bool{true, false} {
			extremeState(ch, 0, agree)
			ends[i] = ch.LogOdds(0)
		}
		lo, hi, mu := interval(ch, 0)
		if math.Abs(min(ends[0], ends[1])-lo) > mu || math.Abs(max(ends[0], ends[1])-hi) > mu {
			t.Fatalf("round %d: extremes reach %v, interval [%v, %v] ± %v", round, ends, lo, hi, mu)
		}
	}
}

// drawCase decodes fuzz bytes into a small chain and a list of draws:
// sources, claims, one document per claim and up to 11 more (source,
// claim, stance, one feature), θ — each parameter a small multiple of
// 1/32 or, every fourth selector, eight raw bytes of a float64 — then a
// value and a frozen bit per claim, and the rest as raw float64 us.
// Exhausted input reads as zeros. The model θ came from is returned
// beside the chain.
func drawCase(data []byte) (*Chain, *crf.Model, []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	raw := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	nSrc, nClaims := 1+int(next()%4), 1+int(next()%6)
	db := &factdb.DB{NumClaims: nClaims}
	for s := 0; s < nSrc; s++ {
		db.AddSource(nil)
	}
	addDoc := func(claim int) {
		st := factdb.Support
		if next()&1 == 1 {
			st = factdb.Refute
		}
		db.AddDocument(int(next())%nSrc, []float64{float64(int8(next())) / 16}, factdb.ClaimRef{Claim: claim, Stance: st})
	}
	for c := 0; c < nClaims; c++ {
		addDoc(c)
	}
	for extra := int(next() % 12); extra > 0; extra-- {
		addDoc(int(next()) % nClaims)
	}
	if err := db.Finalize(); err != nil {
		panic(err)
	}
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	for i := range theta {
		if next()%4 == 0 {
			theta[i] = raw()
		} else {
			theta[i] = float64(int8(next())) / 32
		}
	}
	m.SetTheta(theta)
	ch := NewChain(db, stats.NewRNG(1))
	ch.SetModel(m)
	for c := 0; c < nClaims; c++ {
		b := next()
		ch.setValue(c, b&1 == 1)
		ch.frozen[c] = b&2 == 2
	}
	var us []float64
	for len(data) > 0 && len(us) < 8 {
		us = append(us, raw())
	}
	return ch, m, us
}

// FuzzDrawMatchesLogOdds is TestDrawMatchesLogOdds with the fuzzer
// choosing the corpus, θ, the assignment and the draws (`make
// fuzz-smoke`); a sweep in between moves the state the way serving does,
// and a clone one ulp of θ_T away stands in for a stale worker. The
// seeds are testdata/fuzz/FuzzDrawMatchesLogOdds: coupled and uncoupled
// models, θ_T of +Inf and 1e308, a NaN bias, base scores of ±1e308 that
// cancel under a denormal θ_T, a lone clique, every claim frozen, and
// two that the static thresholds decide — one source whose claims are
// one run each, and mixed stances under a negative θ_T.
func FuzzDrawMatchesLogOdds(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, _, us := drawCase(data)
		stale := ch.CloneDetached(1)
		stale.trustW = math.Nextafter(stale.trustW, math.Inf(1))
		checkStaticUndecided(t, stale, "clone with a stale θ_T")
		checkDraw(t, stale, us)
		checkDraw(t, ch, us)
		ch.Sweep(nil)
		checkDraw(t, ch, us)
	})
}

// referenceSweep is the sweep as it stood before its unfrozen claims
// were compacted and its static stage took one compare: the closure
// Shuffle, a frozen check per member, and the definition on every draw.
// FuzzSweepMatchesReference holds sweepShard to it.
func (ch *Chain) referenceSweep(members, order []int32, rng *stats.RNG) {
	copy(order, members)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, c := range order {
		if !ch.frozen[c] {
			ch.setValue(int(c), below(rng.Float64(), ch.LogOdds(int(c))))
		}
	}
}

// FuzzSweepMatchesReference: sweeps of drawCase's chain — over every
// claim, then over each component, three rounds, on the chain, on a
// clone one ulp of θ_T away (a stale worker, whose draws skip the static
// stage), on two chains that adopted it after sweeping databases of
// another size, one larger and one smaller in claims and sources (a
// worker off the scoring free list), and on a copy that Release dropped
// the tables of and SetModel rebuilt (a finished session
// sampling again), held to a copy that never released — leave the
// assignment, the agreement counters and the stream's next word where
// referenceSweep leaves them (`make fuzz-smoke`). The seeds are
// testdata/fuzz/FuzzSweepMatchesReference: every claim frozen, none
// frozen, a single claim, θ_T of +Inf and of −Inf.
func FuzzSweepMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, _, _ := drawCase(data)
		stale := ch.CloneDetached(1)
		stale.trustW = math.Nextafter(stale.trustW, math.Inf(1))
		type arm struct{ got, want *Chain }
		arms := []arm{{got: ch}, {got: stale}}
		for _, db := range []*factdb.DB{starsDB(t, 5, 2), starDB(t, 1)} {
			prior := NewChain(db, stats.NewRNG(3))
			prior.SetModel(crf.New(db))
			w := prior.CloneDetached(4)
			w.Sweep(nil)
			w.Adopt(ch)
			arms = append(arms, arm{got: w})
		}
		rebuilt, m, _ := drawCase(data)
		rebuilt.Release()
		rebuilt.SetModel(m)
		never, _, _ := drawCase(data)
		arms = append(arms, arm{got: rebuilt, want: never.CloneDetached(2)})
		for _, a := range arms {
			got, want := a.got, a.want
			got.Reseed(2)
			if want == nil {
				want = got.CloneDetached(2)
			}
			all := make([]int32, len(got.x))
			for c := range all {
				all[c] = int32(c)
			}
			order := make([]int32, len(all))
			for round := 0; round < 3; round++ {
				for comp := -1; comp < got.db.NumComponents(); comp++ {
					members, arg := all, []int32(nil) // Sweep(nil) sweeps every claim
					if comp >= 0 {
						members = got.db.ComponentMembers(comp)
						arg = members
					}
					got.Sweep(arg)
					want.referenceSweep(members, order[:len(members)], want.rng)
					if !slices.Equal(got.x, want.x) || !slices.Equal(got.agree, want.agree) {
						t.Fatalf("round %d, component %d: x %v, agree %v; reference x %v, agree %v",
							round, comp, got.x, got.agree, want.x, want.agree)
					}
					if a, b := got.rng.Uint64(), want.rng.Uint64(); a != b {
						t.Fatalf("round %d, component %d: next word %#x, reference %#x", round, comp, a, b)
					}
				}
			}
		}
	})
}

// allocSink keeps a result reachable, so the allocation under test is
// not optimised onto the stack.
var allocSink any

// TestRunShardedReusesScratch: the per-worker order slices and RNGs live
// on the chain, so once a section of some width has run, a serial
// RunSharded allocates its sample set and nothing else.
func TestRunShardedReusesScratch(t *testing.T) {
	db := denseDB(t, 9)
	ch := NewChain(db, stats.NewRNG(71))
	ch.SetModel(crf.New(db))
	allocSink = ch.RunSharded(1, 0, 1, nil)
	set := testing.AllocsPerRun(20, func() { allocSink = newDenseSampleSet(len(ch.x), 0) })
	run := testing.AllocsPerRun(20, func() { allocSink = ch.RunSharded(2, 0, 1, nil) })
	if run != set {
		t.Fatalf("a second RunSharded allocates %v objects, its empty sample set %v", run, set)
	}
	// A wider section grows the scratch once; the next one finds it.
	ch.RunSharded(1, 0, 3, nil)
	if len(ch.shards) != 3 {
		t.Fatalf("%d worker scratches after a 3-wide section", len(ch.shards))
	}
	kept := ch.shards[2].rng
	ch.RunSharded(1, 0, 3, nil)
	if ch.shards[2].rng != kept {
		t.Fatal("a second 3-wide section rebuilt its scratch")
	}
}
