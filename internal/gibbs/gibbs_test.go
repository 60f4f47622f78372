package gibbs

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"factcheck/internal/crf"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

// starDB builds one source with n claims, each supported by one document
// (no features), so only bias and trust drive the sampler.
func starDB(t *testing.T, n int) *factdb.DB { return starsDB(t, 1, n) }

// starsDB builds stars isolated copies of starDB(n): star k owns claims
// k·n … k·n+n−1, so a sharded run has stars components to spread over
// its workers.
func starsDB(t *testing.T, stars, n int) *factdb.DB {
	t.Helper()
	db := &factdb.DB{NumClaims: stars * n}
	for k := 0; k < stars; k++ {
		db.AddSource(nil)
		for i := 0; i < n; i++ {
			db.AddDocument(k, nil, factdb.ClaimRef{Claim: k*n + i, Stance: factdb.Support})
		}
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	return db
}

// forWorkers runs a model-behaviour case against the sampler that
// serves — RunSharded — sequentially and with a goroutine per component.
func forWorkers(t *testing.T, f func(t *testing.T, workers int)) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { f(t, workers) })
	}
}

// sampleSetOf builds Ω from explicit configurations through the write
// path that serves: dense allocation, then SetShard over every claim.
func sampleSetOf(nClaims int, rows ...[]bool) *SampleSet {
	ss := newDenseSampleSet(nClaims, len(rows))
	all := make([]int32, nClaims)
	for c := range all {
		all[c] = int32(c)
	}
	for k, x := range rows {
		ss.SetShard(k, all, x)
	}
	return ss
}

// randomDB builds a random well-formed database for property tests. A
// positive own appends one more source whose only documents are own
// supporting ones about claim 0.
func randomDB(r *stats.RNG, own int) *factdb.DB {
	nSrc := 1 + r.Intn(4)
	nClaims := 1 + r.Intn(6)
	db := &factdb.DB{NumClaims: nClaims}
	for s := 0; s < nSrc; s++ {
		db.AddSource([]float64{r.NormFloat64()})
	}
	// Ensure every claim has at least one document.
	for c := 0; c < nClaims; c++ {
		st := factdb.Support
		if r.Bernoulli(0.3) {
			st = factdb.Refute
		}
		db.AddDocument(r.Intn(nSrc), []float64{r.NormFloat64()}, factdb.ClaimRef{Claim: c, Stance: st})
	}
	extra := r.Intn(8)
	for i := 0; i < extra; i++ {
		st := factdb.Support
		if r.Bernoulli(0.3) {
			st = factdb.Refute
		}
		db.AddDocument(r.Intn(nSrc), []float64{r.NormFloat64()}, factdb.ClaimRef{Claim: r.Intn(nClaims), Stance: st})
	}
	if own > 0 {
		db.AddSource([]float64{r.NormFloat64()})
	}
	for i := 0; i < own; i++ {
		db.AddDocument(nSrc, []float64{r.NormFloat64()}, factdb.ClaimRef{Claim: 0, Stance: factdb.Support})
	}
	if err := db.Finalize(); err != nil {
		panic(err)
	}
	return db
}

func TestZeroModelGivesUniformMarginals(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		db := starsDB(t, 3, 6)
		m := crf.New(db)
		ch := NewChain(db, stats.NewRNG(1))
		ch.SetModel(m)
		ss := ch.RunSharded(10, 400, workers, nil)
		for c := 0; c < db.NumClaims; c++ {
			if p := ss.Marginal(c); math.Abs(p-0.5) > 0.08 {
				t.Fatalf("marginal[%d] = %v, want ~0.5 under zero model", c, p)
			}
		}
	})
}

func TestPositiveBiasPushesMarginalsUp(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		db := starsDB(t, 3, 5)
		m := crf.New(db)
		theta := make([]float64, m.Dim())
		theta[0] = 3 // strong positive bias
		m.SetTheta(theta)
		ch := NewChain(db, stats.NewRNG(2))
		ch.SetModel(m)
		ss := ch.RunSharded(10, 200, workers, nil)
		for c := 0; c < db.NumClaims; c++ {
			if p := ss.Marginal(c); p < 0.9 {
				t.Fatalf("marginal[%d] = %v, want > 0.9", c, p)
			}
		}
	})
}

func TestRefutingStanceFlipsEvidence(t *testing.T) {
	// Per source one claim supported, one refuted, same bias: supported
	// marginal high, refuted low.
	db := &factdb.DB{NumClaims: 6}
	for k := 0; k < 3; k++ {
		db.AddSource(nil)
		db.AddDocument(k, nil, factdb.ClaimRef{Claim: 2 * k, Stance: factdb.Support})
		db.AddDocument(k, nil, factdb.ClaimRef{Claim: 2*k + 1, Stance: factdb.Refute})
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = 2.5
	m.SetTheta(theta)
	forWorkers(t, func(t *testing.T, workers int) {
		ch := NewChain(db, stats.NewRNG(3))
		ch.SetModel(m)
		ss := ch.RunSharded(10, 300, workers, nil)
		for k := 0; k < 3; k++ {
			if p := ss.Marginal(2 * k); p < 0.85 {
				t.Fatalf("supported marginal[%d] = %v", 2*k, p)
			}
			if p := ss.Marginal(2*k + 1); p > 0.15 {
				t.Fatalf("refuted marginal[%d] = %v", 2*k+1, p)
			}
		}
	})
}

func TestTrustCouplingPropagatesLabels(t *testing.T) {
	// Ten claims per source; clamp five of each to true. With a positive
	// trust weight the remaining claims should lean credible: the source
	// has proven trustworthy.
	db := starsDB(t, 3, 10)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[len(theta)-1] = 2 // trust coupling only
	m.SetTheta(theta)
	forWorkers(t, func(t *testing.T, workers int) {
		// Symmetric: clamping to false should push the rest down.
		for _, label := range []bool{true, false} {
			state := factdb.NewState(db.NumClaims)
			for c := 0; c < db.NumClaims; c++ {
				if c%10 < 5 {
					state.SetLabel(c, label)
				}
			}
			ch := NewChain(db, stats.NewRNG(4))
			ch.SetModel(m)
			ch.InitFromState(state)
			ss := ch.RunSharded(20, 300, workers, nil)
			for c := 0; c < db.NumClaims; c++ {
				p := ss.Marginal(c)
				switch {
				case c%10 < 5:
				case label && p < 0.7:
					t.Fatalf("marginal[%d] = %v, want lifted by source trust", c, p)
				case !label && p > 0.3:
					t.Fatalf("marginal[%d] = %v, want pushed down by distrust", c, p)
				}
			}
		}
	})
}

func TestClampedClaimsNeverMove(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		db := starsDB(t, 3, 4)
		m := crf.New(db)
		theta := make([]float64, m.Dim())
		theta[0] = 5 // bias strongly towards credible
		m.SetTheta(theta)
		state := factdb.NewState(db.NumClaims)
		clamped := []int{2, 5, 11} // one per star, against the bias
		for _, c := range clamped {
			state.SetLabel(c, false)
		}
		ch := NewChain(db, stats.NewRNG(6))
		ch.SetModel(m)
		ch.InitFromState(state)
		ss := ch.RunSharded(5, 100, workers, nil)
		for _, c := range clamped {
			if p := ss.Marginal(c); p != 0 {
				t.Fatalf("clamped claim %d moved: marginal = %v", c, p)
			}
			if !ch.frozen[c] {
				t.Fatalf("claim %d should be frozen", c)
			}
		}
	})
}

func TestAgreementCountersStayConsistent(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		db := randomDB(r, 0)
		m := crf.New(db)
		theta := make([]float64, m.Dim())
		for i := range theta {
			theta[i] = r.NormFloat64()
		}
		m.SetTheta(theta)
		ch := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		ch.SetModel(m)
		for i := 0; i < 5; i++ {
			ch.Sweep(nil)
		}
		// Compare incremental counters against a recount.
		want := make([]int32, len(db.Sources))
		for _, cl := range db.Rows().Cliques {
			if ch.x[cl.Claim] == (cl.Stance == factdb.Support) {
				want[cl.Source]++
			}
		}
		for s := range want {
			if want[s] != ch.agree[s] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// naiveLogOdds recomputes claim c's conditional log-odds from first
// principles, clique by clique, with no run table.
func naiveLogOdds(ch *Chain, m *crf.Model, c int) float64 {
	db, cliques := ch.db, ch.db.Rows().Cliques
	base := m.BaseScores()
	want := 0.0
	for _, ci := range db.ClaimCliques(c) {
		cl := cliques[ci]
		// Trust of cl.Source over cliques not involving claim c.
		var agree, total float64
		for _, cj := range cliques {
			if cj.Source != cl.Source || cj.Claim == int32(c) {
				continue
			}
			total++
			if ch.x[cj.Claim] == (cj.Stance == factdb.Support) {
				agree++
			}
		}
		trust := 0.0
		if total > 0 {
			trust = 2*(agree+trustPriorAgree)/(total+trustPriorAgree+trustPriorDisagree) - 1
		}
		want += cl.Stance.Sign() * (base[ci] + m.TrustWeight()*trust)
	}
	if n := len(db.ClaimCliques(c)); n > 0 {
		want = crf.OddsGain * want / float64(n)
	}
	return want
}

// randomModel draws θ for db; trust = false zeroes θ_T, which selects
// the sweep's separate no-coupling loop.
func randomModel(r *stats.RNG, db *factdb.DB, trust bool) *crf.Model {
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	for i := range theta {
		theta[i] = r.NormFloat64()
	}
	if !trust {
		theta[len(theta)-1] = 0
	}
	m.SetTheta(theta)
	return m
}

// TestLogOddsMatchesNaiveComputation checks both loops of LogOdds
// (θ_T = 0 and θ_T ≠ 0) against the clique-by-clique definition on
// random databases, each extended by a source whose only cliques are
// claim 0's own: its run has no cliques left once the claim's are
// excluded (denom == 0) and must contribute no trust term.
func TestLogOddsMatchesNaiveComputation(t *testing.T) {
	err := quick.Check(func(seed int64, trust bool) bool {
		r := stats.NewRNG(seed)
		db := randomDB(r, 2)
		m := randomModel(r, db, trust)
		ch := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		ch.SetModel(m)
		own := int32(len(db.Sources) - 1)
		ownRuns := 0
		for i, source := range ch.src {
			if source == own {
				ownRuns++
				rn, refute := ch.cold[i], ch.cold[i].support-ch.diff[i]
				if rn.denom != 0 || ch.w[i] != 0 || int32(i) >= ch.claims[1].off || rn.support+refute != 2 {
					return false
				}
			}
		}
		if ownRuns != 1 {
			return false
		}
		for c := 0; c < db.NumClaims; c++ {
			if math.Abs(ch.LogOdds(c)-naiveLogOdds(ch, m, c)) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}

// referenceSetModel is SetModel as it was when the chain stored a
// clique→run map: the map built by buildRuns' rule (a claim's cliques
// in appearance order, a new run at each source not seen since the
// claim's first run), then every clique's signed base score added into
// its run claim by claim. It returns the claim rows and cold column it
// fills on copies of ch's.
func referenceSetModel(ch *Chain, m *crf.Model) ([]claimRow, []coldRun) {
	db, cliques := ch.db, ch.db.Rows().Cliques
	cliqueRun := make([]int32, len(cliques))
	slot := make([]int32, len(db.Sources))
	for s := range slot {
		slot[s] = -1
	}
	for c := range db.NumClaims {
		first, next := ch.claims[c].off, ch.claims[c].off
		for _, ci := range db.ClaimCliques(c) {
			if s := cliques[ci].Source; slot[s] < first {
				slot[s] = next
				next++
			}
			cliqueRun[ci] = slot[cliques[ci].Source]
		}
	}

	ref := *ch
	ref.claims, ref.cold = slices.Clone(ch.claims), slices.Clone(ch.cold)
	base := m.BaseScores()
	ref.trustW = m.TrustWeight()
	for i := range ref.cold {
		ref.cold[i].signedBase = 0
	}
	for c := range db.NumClaims {
		for _, ci := range db.ClaimCliques(c) {
			ref.cold[cliqueRun[ci]].signedBase += cliques[ci].Stance.Sign() * base[ci]
		}
	}
	for c := range ref.claims[:len(ref.claims)-1] {
		row := &ref.claims[c]
		rs := ref.cold[row.off:ref.claims[c+1].off]
		sum, abs := 0.0, 0.0
		for i := range rs {
			sum += rs[i].signedBase
			abs += math.Abs(rs[i].signedBase)
		}
		g := boundGamma(len(rs))
		row.base = sum
		row.errBase = boundMargin*row.scale*2*g*abs + underflowPad
		row.uLo, row.uHi = ref.staticThresholds(c, g)
	}
	ref.claims[len(ref.claims)-1].base = ref.trustW
	return ref.claims, ref.cold
}

// sameRunsAndRows reports whether two run tables agree bit for bit in
// every field SetModel writes: each run's signedBase, and each row's
// base, errBase and static thresholds (the sentinel's base is θ_T).
func sameRunsAndRows(a, b []claimRow, ac, bc []coldRun) bool {
	if len(a) != len(b) || len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if math.Float64bits(ac[i].signedBase) != math.Float64bits(bc[i].signedBase) {
			return false
		}
	}
	for i := range a {
		if math.Float64bits(a[i].base) != math.Float64bits(b[i].base) ||
			math.Float64bits(a[i].errBase) != math.Float64bits(b[i].errBase) ||
			math.Float32bits(a[i].uLo) != math.Float32bits(b[i].uLo) ||
			math.Float32bits(a[i].uHi) != math.Float32bits(b[i].uHi) {
			return false
		}
	}
	return true
}

// TestSetModelMatchesReference: SetModel, which finds a clique's run
// through a per-claim source slot, leaves every run's signedBase and
// every row's base, errBase and thresholds bit-equal to the reference
// that reads an explicit clique→run map — with and without a trust
// term, on a fresh chain, after a second θ, and after Grow over an
// extended database.
func TestSetModelMatchesReference(t *testing.T) {
	err := quick.Check(func(seed int64, trust bool) bool {
		r := stats.NewRNG(seed)
		db := randomDB(r, 1+r.Intn(2))
		ch := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		// The reference reads the run layout SetModel builds on a
		// released chain, so it runs second; it recomputes every field
		// θ reaches.
		check := func(m *crf.Model) bool {
			ch.SetModel(m)
			claims, cold := referenceSetModel(ch, m)
			return sameRunsAndRows(ch.claims, claims, ch.cold, cold)
		}
		if !check(randomModel(r, db, trust)) || !check(randomModel(r, db, !trust)) {
			return false
		}
		ch.Sweep(nil)
		if _, err := db.Extend(growDelta(r, db)); err != nil {
			t.Error(err)
			return false
		}
		ch.Grow(stats.NewRNG(int64(r.Uint64())))
		return check(randomModel(r, db, trust))
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGrowMatchesNewChain is the rebuild property of the run table: a
// chain grown in place over an extended database has the same table,
// agreement counters and conditional log-odds, bit for bit, as a
// chain built from scratch on the grown database in the same assignment.
func TestGrowMatchesNewChain(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		db := randomDB(r, 0)
		grown := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		grown.SetModel(randomModel(r, db, true))
		grown.Sweep(nil)

		if _, err := db.Extend(growDelta(r, db)); err != nil {
			t.Error(err)
			return false
		}
		m := randomModel(r, db, true)
		grown.Grow(stats.NewRNG(int64(r.Uint64())))
		grown.SetModel(m)

		fresh := NewChain(db, stats.NewRNG(int64(r.Uint64())))
		fresh.SetModel(m)
		for c, v := range grown.x {
			fresh.setValue(c, v)
		}
		if !slices.Equal(grown.claims, fresh.claims) || !slices.Equal(grown.src, fresh.src) ||
			!slices.Equal(grown.w, fresh.w) || !slices.Equal(grown.diff, fresh.diff) ||
			!slices.Equal(grown.cold, fresh.cold) ||
			!slices.Equal(grown.agree, fresh.agree) ||
			len(grown.frozen) != db.NumClaims {
			return false
		}
		for c := 0; c < db.NumClaims; c++ {
			if math.Float64bits(grown.LogOdds(c)) != math.Float64bits(fresh.LogOdds(c)) {
				return false
			}
			gl, gd := grown.fastLogOdds(c)
			fl, fd := fresh.fastLogOdds(c)
			if math.Float64bits(gl) != math.Float64bits(fl) || math.Float64bits(gd) != math.Float64bits(fd) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRebuildIsExact is the lifecycle of a finished session's
// chain: Release drops the run table, the agreement counters and the
// sweep scratch and keeps the assignment, frozen flags, stream and trust
// weight; SetModel then rebuilds a claim table, run columns and counters
// that deep-equal the pre-release chain's, and the two chains sweep on
// in lockstep.
func TestReleaseRebuildIsExact(t *testing.T) {
	err := quick.Check(func(seed int64, trust bool) bool {
		r := stats.NewRNG(seed)
		db := randomDB(r, r.Intn(2))
		m := randomModel(r, db, trust)
		chainSeed := int64(r.Uint64())
		var arms [2]*Chain
		for i := range arms {
			ch := NewChain(db, stats.NewRNG(chainSeed))
			ch.SetModel(m)
			ch.Freeze(0, true)
			ch.Sweep(nil)
			ch.RunSharded(1, 1, 2, nil)
			arms[i] = ch
		}
		live, ch := arms[0], arms[1]
		x, frozen, rng, trustW := slices.Clone(ch.x), slices.Clone(ch.frozen), *ch.rng, ch.trustW
		ch.Release()
		if !ch.Released() || ch.src != nil || ch.w != nil || ch.diff != nil || ch.cold != nil ||
			ch.agree != nil || ch.shards != nil || ch.counts != nil || ch.snap.xvals != nil {
			t.Errorf("seed %d: a released chain keeps a table or scratch", seed)
			return false
		}
		if !slices.Equal(ch.x, x) || !slices.Equal(ch.frozen, frozen) || *ch.rng != rng || ch.trustW != trustW {
			t.Errorf("seed %d: Release moved the chain's own state", seed)
			return false
		}
		ch.SetModel(m)
		if ch.Released() || !reflect.DeepEqual(ch.claims, live.claims) || !slices.Equal(ch.src, live.src) ||
			!slices.Equal(ch.w, live.w) || !slices.Equal(ch.diff, live.diff) ||
			!reflect.DeepEqual(ch.cold, live.cold) || !slices.Equal(ch.agree, live.agree) {
			t.Errorf("seed %d: the rebuilt tables differ from the pre-release chain's", seed)
			return false
		}
		for round := 0; round < 3; round++ {
			ch.Sweep(nil)
			live.Sweep(nil)
			a, b := ch.RunSharded(1, 2, 2, nil), live.RunSharded(1, 2, 2, nil)
			if !slices.Equal(ch.x, live.x) || !slices.Equal(ch.agree, live.agree) || !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d, round %d: the rebuilt chain swept elsewhere", seed, round)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	r := stats.NewRNG(11)
	db := randomDB(r, 0)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = 0.5
	theta[len(theta)-1] = 1
	m.SetTheta(theta)
	ch := NewChain(db, stats.NewRNG(int64(r.Uint64())))
	ch.SetModel(m)
	for i := 0; i < 3; i++ {
		ch.Sweep(nil)
	}
	comp := db.ComponentOf(0)
	snap := ch.SnapshotComponentScratch(comp)
	savedX := append([]bool(nil), ch.x...)
	savedAgree := append([]int32(nil), ch.agree...)

	// Excursion: clamp claim 0 and churn the component.
	ch.Freeze(0, !ch.Value(0))
	ch.RunComponentInto(nil, comp, 3, 5)
	ch.Restore(snap)

	for _, c := range db.ComponentMembers(comp) {
		if ch.x[c] != savedX[c] {
			t.Fatalf("claim %d not restored", c)
		}
		if ch.frozen[c] {
			t.Fatalf("claim %d left frozen", c)
		}
	}
	for s := range savedAgree {
		if ch.agree[s] != savedAgree[s] {
			t.Fatalf("agree[%d] not restored: %d vs %d", s, ch.agree[s], savedAgree[s])
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	db := starDB(t, 6)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(13))
	ch.SetModel(m)
	rngBefore := *ch.rng
	clone := ch.CloneDetached(7)
	savedX := append([]bool(nil), ch.x...)
	for i := 0; i < 10; i++ {
		clone.Sweep(nil)
	}
	for c := range savedX {
		if ch.x[c] != savedX[c] {
			t.Fatal("clone sweeps mutated parent")
		}
	}
	if *ch.rng != rngBefore {
		t.Fatal("cloning or clone sweeps advanced the parent's RNG stream")
	}
}

func TestRunComponentOnlyTouchesComponent(t *testing.T) {
	// Two isolated components (two sources, disjoint claims).
	db := &factdb.DB{NumClaims: 4}
	db.AddSource(nil)
	db.AddSource(nil)
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 0, Stance: factdb.Support})
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 1, Stance: factdb.Support})
	db.AddDocument(1, nil, factdb.ClaimRef{Claim: 2, Stance: factdb.Support})
	db.AddDocument(1, nil, factdb.ClaimRef{Claim: 3, Stance: factdb.Support})
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(17))
	ch.SetModel(m)
	compA := db.ComponentOf(0)
	compB := db.ComponentOf(2)
	if compA == compB {
		t.Fatal("expected two components")
	}
	xBefore := []bool{ch.Value(2), ch.Value(3)}
	res := ch.RunComponentInto(nil, compA, 50, 50)
	if len(res.Members) != 2 {
		t.Fatalf("members = %v", res.Members)
	}
	if ch.Value(2) != xBefore[0] || ch.Value(3) != xBefore[1] {
		t.Fatal("RunComponentInto touched foreign claims")
	}
}

func TestSyncLabelsClampsAndReleases(t *testing.T) {
	db := starDB(t, 3)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(19))
	ch.SetModel(m)
	state := factdb.NewState(3)
	state.SetLabel(1, true)
	ch.SyncLabels(state)
	if !ch.frozen[1] || !ch.Value(1) {
		t.Fatal("SyncLabels did not clamp claim 1")
	}
	ch.SyncLabels(factdb.NewState(3)) // the same claims, none labelled
	if ch.frozen[1] {
		t.Fatal("SyncLabels did not release claim 1")
	}
}

// denseDB builds a multi-component database: nComp star components of
// varying size, so sharded runs exercise uneven shards.
func denseDB(t *testing.T, nComp int) *factdb.DB {
	t.Helper()
	db := &factdb.DB{}
	for s := 0; s < nComp; s++ {
		db.AddSource(nil)
		size := 1 + s%4
		for k := 0; k < size; k++ {
			st := factdb.Support
			if (s+k)%3 == 0 {
				st = factdb.Refute
			}
			db.AddDocument(s, nil, factdb.ClaimRef{Claim: db.NumClaims, Stance: st})
			db.NumClaims++
		}
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRunShardedIdenticalAcrossWorkerCounts(t *testing.T) {
	db := denseDB(t, 9)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = 0.7
	theta[len(theta)-1] = 0.5
	m.SetTheta(theta)
	run := func(workers int) *SampleSet {
		ch := NewChain(db, stats.NewRNG(31))
		ch.SetModel(m)
		return ch.RunSharded(6, 12, workers, nil)
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.NumSamples() != want.NumSamples() {
			t.Fatalf("workers=%d: %d samples, want %d", workers, got.NumSamples(), want.NumSamples())
		}
		for si := range want.samples {
			for w := range want.samples[si] {
				if got.samples[si][w] != want.samples[si][w] {
					t.Fatalf("workers=%d: sample %d word %d differs", workers, si, w)
				}
			}
		}
		for c := 0; c < db.NumClaims; c++ {
			if got.Marginal(c) != want.Marginal(c) {
				t.Fatalf("workers=%d: marginal[%d] = %v, want %v", workers, c, got.Marginal(c), want.Marginal(c))
			}
		}
	}
}

func TestRunShardedRespectsLabels(t *testing.T) {
	db := denseDB(t, 5)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(37))
	ch.SetModel(m)
	state := factdb.NewState(db.NumClaims)
	state.SetLabel(0, true)
	state.SetLabel(3, false)
	ch.InitFromState(state)
	ss := ch.RunSharded(4, 20, 4, nil)
	if p := ss.Marginal(0); p != 1 {
		t.Fatalf("labelled-true marginal = %v", p)
	}
	if p := ss.Marginal(3); p != 0 {
		t.Fatalf("labelled-false marginal = %v", p)
	}
}

func TestRunGuardsNonPositiveSamples(t *testing.T) {
	db := starDB(t, 4)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(41))
	ch.SetModel(m)
	for _, ss := range []*SampleSet{ch.RunSharded(2, 0, 1, nil), ch.RunSharded(-1, -3, 1, nil), ch.RunSharded(2, 0, 2, nil)} {
		for c := 0; c < db.NumClaims; c++ {
			p := ss.Marginal(c)
			if math.IsNaN(p) || p != 0.5 {
				t.Fatalf("empty-sample marginal[%d] = %v, want 0.5", c, p)
			}
		}
	}
	res := ch.RunComponentInto(nil, db.ComponentOf(0), 1, 0)
	for i, p := range res.Marginals {
		if math.IsNaN(p) || p != 0.5 {
			t.Fatalf("RunComponentInto(samples=0) marginal[%d] = %v, want 0.5", i, p)
		}
	}
	res = ch.RunComponentInto(nil, db.ComponentOf(0), 1, -1)
	for i, p := range res.Marginals {
		if math.IsNaN(p) {
			t.Fatalf("RunComponentInto(samples=-1) marginal[%d] is NaN", i)
		}
	}
}

func TestRunComponentIntoReusesBuffer(t *testing.T) {
	db := starDB(t, 6)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(43))
	ch.SetModel(m)
	comp := db.ComponentOf(0)
	buf := make([]float64, 0, db.NumClaims)
	res := ch.RunComponentInto(buf, comp, 2, 4)
	if &res.Marginals[0] != &buf[:1][0] {
		t.Fatal("RunComponentInto did not reuse the provided buffer")
	}
	if len(res.Marginals) != len(res.Members) {
		t.Fatalf("marginals/members mismatch: %d vs %d", len(res.Marginals), len(res.Members))
	}
}

func TestSyncLabelsMatchesInitFromState(t *testing.T) {
	db := denseDB(t, 7)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = 0.4
	m.SetTheta(theta)
	state := factdb.NewState(db.NumClaims)
	for c := 0; c < db.NumClaims; c += 2 {
		state.SetLabel(c, c%4 == 0)
	}

	chInit := NewChain(db, stats.NewRNG(47))
	chInit.SetModel(m)
	chInit.InitFromState(state)

	chSync := NewChain(db, stats.NewRNG(47))
	chSync.SetModel(m)
	chSync.SyncLabels(state)

	// Labelled claims and frozen flags must agree exactly between the two
	// construction paths.
	for c := 0; c < db.NumClaims; c++ {
		if chInit.frozen[c] != chSync.frozen[c] {
			t.Fatalf("frozen[%d]: init %v, sync %v", c, chInit.frozen[c], chSync.frozen[c])
		}
		if v, ok := state.Label(c); ok {
			if chInit.x[c] != v || chSync.x[c] != v {
				t.Fatalf("labelled claim %d not clamped: init %v, sync %v, want %v", c, chInit.x[c], chSync.x[c], v)
			}
		}
	}
	// Both chains' agreement counters must be consistent with their own
	// assignment (SyncLabels maintains them incrementally, InitFromState
	// recounts).
	for _, ch := range []*Chain{chInit, chSync} {
		want := make([]int32, len(db.Sources))
		for _, cl := range db.Rows().Cliques {
			if ch.x[cl.Claim] == (cl.Stance == factdb.Support) {
				want[cl.Source]++
			}
		}
		for s := range want {
			if want[s] != ch.agree[s] {
				t.Fatalf("agree[%d] = %d, want %d", s, ch.agree[s], want[s])
			}
		}
	}
	// With every claim labelled the two paths are bit-identical: no RNG
	// draw is needed, so the sampled-vs-kept distinction vanishes.
	full := factdb.NewState(db.NumClaims)
	for c := 0; c < db.NumClaims; c++ {
		full.SetLabel(c, c%3 != 0)
	}
	chA := NewChain(db, stats.NewRNG(53))
	chA.SetModel(m)
	chA.InitFromState(full)
	chB := NewChain(db, stats.NewRNG(53))
	chB.SetModel(m)
	chB.SyncLabels(full)
	for c := 0; c < db.NumClaims; c++ {
		if chA.x[c] != chB.x[c] || chA.frozen[c] != chB.frozen[c] {
			t.Fatalf("fully labelled state diverged at claim %d", c)
		}
	}
	for s := range chA.agree {
		if chA.agree[s] != chB.agree[s] {
			t.Fatalf("fully labelled agree[%d] diverged: %d vs %d", s, chA.agree[s], chB.agree[s])
		}
	}
}

func TestCopyStateFromResyncsClone(t *testing.T) {
	db := denseDB(t, 6)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(59))
	ch.SetModel(m)
	clone := ch.CloneDetached(7)
	// Diverge the clone, then churn the parent.
	for i := 0; i < 5; i++ {
		clone.Sweep(nil)
		ch.Sweep(nil)
	}
	clone.CopyStateFrom(ch)
	for c := range ch.x {
		if clone.x[c] != ch.x[c] || clone.frozen[c] != ch.frozen[c] {
			t.Fatalf("claim %d not resynced", c)
		}
	}
	for s := range ch.agree {
		if clone.agree[s] != ch.agree[s] {
			t.Fatalf("agree[%d] not resynced", s)
		}
	}
	if clone.trustW != ch.trustW {
		t.Fatal("trust weight not resynced")
	}
}

func TestReseedMakesRunsReproducible(t *testing.T) {
	db := denseDB(t, 5)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(61))
	ch.SetModel(m)
	comp := db.ComponentOf(0)
	snap := ch.SnapshotComponentScratch(comp)
	ch.Reseed(99)
	a := ch.RunComponentInto(nil, comp, 2, 6)
	aCopy := append([]float64(nil), a.Marginals...)
	ch.Restore(snap)
	ch.Reseed(99)
	b := ch.RunComponentInto(nil, comp, 2, 6)
	for i := range aCopy {
		if aCopy[i] != b.Marginals[i] {
			t.Fatalf("reseeded run diverged at member %d: %v vs %v", i, aCopy[i], b.Marginals[i])
		}
	}
}

func TestSampleSetMarginals(t *testing.T) {
	ss := sampleSetOf(3, []bool{true, false, true}, []bool{true, false, false})
	if ss.NumSamples() != 2 {
		t.Fatalf("NumSamples = %d", ss.NumSamples())
	}
	if ss.Marginal(0) != 1 || ss.Marginal(1) != 0 || ss.Marginal(2) != 0.5 {
		t.Fatalf("marginals wrong: %v %v %v", ss.Marginal(0), ss.Marginal(1), ss.Marginal(2))
	}
	empty := sampleSetOf(2)
	if empty.Marginal(0) != 0.5 {
		t.Fatal("empty sample set marginal should be 0.5")
	}
}

func TestDecidePicksJointMode(t *testing.T) {
	// Mirrors the paper's §3.3 example: samples [1,1,0], [1,0,0], [1,1,0]
	// must ground as [1,1,0].
	db := starDB(t, 3)
	state := factdb.NewState(3)
	ss := sampleSetOf(3, []bool{true, true, false}, []bool{true, false, false}, []bool{true, true, false})
	g := Decide(db, state, ss)
	want := factdb.Grounding{true, true, false}
	for c := range want {
		if g[c] != want[c] {
			t.Fatalf("g[%d] = %v, want %v", c, g[c], want[c])
		}
	}
}

func TestDecideRespectsLabels(t *testing.T) {
	db := starDB(t, 2)
	state := factdb.NewState(2)
	state.SetLabel(0, false)
	ss := sampleSetOf(2, []bool{true, true}, []bool{true, true})
	g := Decide(db, state, ss)
	if g[0] {
		t.Fatal("label must override samples")
	}
	if !g[1] {
		t.Fatal("unlabeled claim should follow samples")
	}
}

func TestDecideEmptySampleSetThresholdsP(t *testing.T) {
	db := starDB(t, 2)
	state := factdb.NewState(2)
	state.SetP(0, 0.9)
	state.SetP(1, 0.1)
	g := Decide(db, state, nil)
	if !g[0] || g[1] {
		t.Fatalf("grounding = %v", g)
	}
}

func TestDecideUniqueConfigsFallsBackToMajority(t *testing.T) {
	db := starDB(t, 2)
	state := factdb.NewState(2)
	ss := sampleSetOf(2, []bool{true, true}, []bool{true, false}, []bool{false, true})
	// All configs unique; majority per claim: c0 2/3 true, c1 2/3 true.
	g := Decide(db, state, ss)
	if !g[0] || !g[1] {
		t.Fatalf("grounding = %v, want majority [true,true]", g)
	}
}

func TestFreezeUnfreeze(t *testing.T) {
	db := starDB(t, 2)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = -8
	m.SetTheta(theta)
	ch := NewChain(db, stats.NewRNG(23))
	ch.SetModel(m)
	ch.Freeze(0, true)
	for i := 0; i < 20; i++ {
		ch.Sweep(nil)
	}
	if !ch.Value(0) {
		t.Fatal("frozen claim flipped")
	}
	ch.Unfreeze(0)
	for i := 0; i < 20; i++ {
		ch.Sweep(nil)
	}
	if ch.Value(0) {
		t.Fatal("unfrozen claim should follow strong negative bias")
	}
}

// twoComponentDB builds two isolated components (disjoint sources and
// claims) for isolation tests of the incremental refresh path.
func twoComponentDB(t *testing.T) *factdb.DB {
	t.Helper()
	db := &factdb.DB{NumClaims: 4}
	db.AddSource(nil)
	db.AddSource(nil)
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 0, Stance: factdb.Support})
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 1, Stance: factdb.Refute})
	db.AddDocument(1, nil, factdb.ClaimRef{Claim: 2, Stance: factdb.Support})
	db.AddDocument(1, nil, factdb.ClaimRef{Claim: 3, Stance: factdb.Support})
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSetShardKeepsCountsConsistent(t *testing.T) {
	db := twoComponentDB(t)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(23))
	ch.SetModel(m)
	ss := ch.RunSharded(5, 16, 1, nil)
	// Overwrite component A's bits in every sample with a fixed pattern,
	// then verify the counts still equal a recount from the raw bits.
	members := db.ComponentMembers(db.ComponentOf(0))
	x := make([]bool, db.NumClaims)
	for k := 0; k < ss.NumSamples(); k++ {
		for i, c := range members {
			x[c] = (k+i)%2 == 0
		}
		ss.SetShard(k, members, x)
	}
	for c := 0; c < db.NumClaims; c++ {
		n := 0
		for k := 0; k < ss.NumSamples(); k++ {
			if ss.bit(k, c) {
				n++
			}
		}
		want := float64(n) / float64(ss.NumSamples())
		if got := ss.Marginal(c); got != want {
			t.Fatalf("claim %d: Marginal = %v, recount = %v", c, got, want)
		}
	}
}

func TestRefreshComponentOnlyTouchesComponent(t *testing.T) {
	db := twoComponentDB(t)
	m := crf.New(db)
	ch := NewChain(db, stats.NewRNG(29))
	ch.SetModel(m)
	ss := ch.RunSharded(5, 12, 1, nil)
	compA, compB := db.ComponentOf(0), db.ComponentOf(2)
	if compA == compB {
		t.Fatal("expected two components")
	}
	// Record component B's bits and the chain's B state.
	membersB := db.ComponentMembers(compB)
	bitsBefore := make([][]bool, ss.NumSamples())
	for k := range bitsBefore {
		for _, c := range membersB {
			bitsBefore[k] = append(bitsBefore[k], ss.bit(k, int(c)))
		}
	}
	xBefore := []bool{ch.Value(2), ch.Value(3)}
	rngBefore := *ch.rng

	ch.RefreshComponent(ss, compA, 4, 99)

	for k := range bitsBefore {
		for i, c := range membersB {
			if ss.bit(k, int(c)) != bitsBefore[k][i] {
				t.Fatalf("sample %d: foreign claim %d bit changed", k, c)
			}
		}
	}
	if ch.Value(2) != xBefore[0] || ch.Value(3) != xBefore[1] {
		t.Fatal("RefreshComponent touched foreign claims")
	}
	if *ch.rng != rngBefore {
		t.Fatal("RefreshComponent advanced the chain's own RNG stream")
	}

	// Determinism: the same (state, component, seed) refresh on an
	// identically prepared chain yields identical bits.
	ch2 := NewChain(db, stats.NewRNG(29))
	ch2.SetModel(m)
	ss2 := ch2.RunSharded(5, 12, 1, nil)
	ch2.RefreshComponent(ss2, compA, 4, 99)
	for c := 0; c < db.NumClaims; c++ {
		if ss.Marginal(c) != ss2.Marginal(c) {
			t.Fatalf("claim %d: refresh not deterministic (%v vs %v)", c, ss.Marginal(c), ss2.Marginal(c))
		}
	}
}

// exactMarginals enumerates every configuration of every component and
// returns the claim marginals of the joint the chain's conditionals
// define. By Brook's lemma p(x)/p(0) = Π_i odds_i(x_1 … x_{i-1}, 0 … 0)^x_i,
// so the only model code involved is LogOdds, itself pinned against a
// first-principles recomputation by TestLogOddsMatchesNaiveComputation.
// reverse flips the factorisation order: conditionals that are
// compatible with one joint give the same answer under every order.
func exactMarginals(ch *Chain, reverse bool) []float64 {
	marg := make([]float64, len(ch.x))
	for comp := 0; comp < ch.db.NumComponents(); comp++ {
		var free []int
		for _, c := range ch.db.ComponentMembers(comp) {
			if !ch.frozen[c] {
				free = append(free, int(c))
			} else if ch.x[c] {
				marg[c] = 1
			}
		}
		if reverse {
			slices.Reverse(free)
		}
		weights := make([]float64, 1<<len(free))
		z := 0.0
		for mask := range weights {
			for _, c := range free {
				ch.setValue(c, false)
			}
			logw := 0.0
			for i, c := range free {
				if mask>>i&1 == 1 {
					logw += ch.LogOdds(c)
					ch.setValue(c, true)
				}
			}
			weights[mask] = math.Exp(logw)
			z += weights[mask]
		}
		for mask, w := range weights {
			for i, c := range free {
				if mask>>i&1 == 1 {
					marg[c] += w / z
				}
			}
		}
	}
	return marg
}

// TestRunShardedMatchesExactEnumeration is the sampler's ground truth
// (Eq. 6-7): on a database small enough to enumerate — three components
// of 4, 3 and 5 claims with mixed stances, bias, trust coupling and two
// clamped claims — the marginals RunSharded estimates converge to the
// exact marginals of the model's joint distribution, at any worker
// count. One document per claim keeps the trust couplings symmetric, so
// the conditionals do define a joint (checked: both factorisation orders
// agree).
func TestRunShardedMatchesExactEnumeration(t *testing.T) {
	db := &factdb.DB{}
	for k, size := range []int{4, 3, 5} {
		db.AddSource(nil)
		for i := 0; i < size; i++ {
			st := factdb.Support
			if (k+i)%3 == 0 {
				st = factdb.Refute
			}
			db.AddDocument(k, nil, factdb.ClaimRef{Claim: db.NumClaims, Stance: st})
			db.NumClaims++
		}
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = 0.15
	theta[len(theta)-1] = 0.6
	m.SetTheta(theta)
	state := factdb.NewState(db.NumClaims)
	state.SetLabel(1, true)
	state.SetLabel(9, false)
	prepare := func() *Chain {
		ch := NewChain(db, stats.NewRNG(67))
		ch.SetModel(m)
		ch.InitFromState(state)
		return ch
	}
	want := exactMarginals(prepare(), false)
	for c, p := range exactMarginals(prepare(), true) {
		if math.Abs(p-want[c]) > 1e-9 {
			t.Fatalf("conditionals define no joint: claim %d marginal %v vs %v by factorisation order", c, want[c], p)
		}
	}
	spread := 0.0
	for _, p := range want {
		spread = math.Max(spread, math.Abs(p-0.5))
	}
	if spread < 0.1 {
		t.Fatalf("exact marginals %v are all near 0.5: the case cannot tell a sampler from a coin", want)
	}
	forWorkers(t, func(t *testing.T, workers int) {
		ss := prepare().RunSharded(50, 6000, workers, nil)
		for c := range want {
			if got := ss.Marginal(c); math.Abs(got-want[c]) > 0.02 {
				t.Errorf("claim %d: sampled marginal %v, exact %v", c, got, want[c])
			}
		}
	})
}

// TestBelowMatchesSigmoid makes the squeeze's "exact" mechanical: below
// must equal the comparison it replaces for every input the sweep can
// produce — and for those it cannot. The seeded pairs cover the bulk;
// the adversarial set puts u on every table value and on both slack
// boundaries, l on every grid point, each ± 0–3 ulps, and then leaves
// the grid: |l| ≥ 12, ±Inf and NaN.
func TestBelowMatchesSigmoid(t *testing.T) {
	for k := 1; k < len(sigmoidTab); k++ {
		if sigmoidTab[k] < sigmoidTab[k-1] {
			t.Fatalf("table decreases at %d: %v > %v", k, sigmoidTab[k-1], sigmoidTab[k])
		}
	}
	check := func(u, l float64) {
		if got, want := below(u, l), u < stats.Sigmoid(l); got != want {
			t.Fatalf("below(%v, %v) = %v, want %v (u bits %#x, l bits %#x)",
				u, l, got, want, math.Float64bits(u), math.Float64bits(l))
		}
	}
	// around returns x and its three neighbours on either side.
	around := func(x float64) []float64 {
		out := []float64{x}
		for lo, hi, i := x, x, 0; i < 3; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			out = append(out, lo, hi)
		}
		return out
	}

	r := stats.NewRNG(20260928)
	for i := 0; i < 10_000_000; i++ {
		u := r.Float64()
		var l float64
		switch i % 4 {
		case 0:
			l = 28*r.Float64() - 14
		case 1:
			l = 3 * r.NormFloat64()
		case 2: // near a grid point, where the cell index is at stake
			l = float64(r.Intn(len(sigmoidTab)))/16 - 12 + 1e-12*r.NormFloat64()
		default: // u near the decision boundary, where the slack is at stake
			l = 24*r.Float64() - 12
			u = stats.Sigmoid(l) + 4e-9*(r.Float64()-0.5)
		}
		check(u, l)
	}

	var us []float64
	for _, tk := range sigmoidTab {
		for _, c := range []float64{tk, tk - sigmoidSlack, tk + sigmoidSlack} {
			us = append(us, around(c)...)
		}
	}
	us = append(us, 0, math.SmallestNonzeroFloat64, 0.5, 1-1.0/(1<<53))
	var ls []float64
	for k := range sigmoidTab {
		ls = append(ls, around(float64(k)/16-12)...)
	}
	for _, l := range []float64{12.5, 13, 40, 745, 1e308, math.Inf(1)} {
		ls = append(ls, l, -l)
	}
	ls = append(ls, math.NaN(), 0, math.Copysign(0, -1))
	for _, l := range ls {
		for _, u := range us {
			check(u, l)
		}
	}
}
