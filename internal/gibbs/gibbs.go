// Package gibbs implements the constrained Gibbs sampler behind the
// E-step of the iCRF algorithm (§3.2, Eq. 6-7). The sampler draws claim
// configurations from the conditional distribution defined by the CRF's
// clique scores, where each clique's influence is weighted by the
// credibility of the claims of its source (the mutual-reinforcement term;
// see crf package docs). User-labelled claims are clamped — the
// constraint-embedding of [61] — and the chain state persists across
// validation iterations, which is the "view maintenance" that makes iCRF
// incremental.
package gibbs

import (
	"math"
	"slices"

	"factcheck/internal/crf"
	"factcheck/internal/factdb"
	"factcheck/internal/optimize"
	"factcheck/internal/stats"
)

// The run table. A claim's cliques that share a source fold into one run,
// because the trust term excludes the claim's own cliques per source. The
// runs of all claims sit in claim order in parallel columns (28 bytes a
// run), split by who reads them: draw streams src and w, setValue src
// and diff, and only LogOdds — the definition, reached by the ≈ 1 % of
// draws neither earlier stage decides — and SetModel touch cold.

// coldRun is what only the exact conditional reads of a run.
type coldRun struct {
	// signedBase is Σ_π Stance(π).Sign()·BaseScore(π) over the run's
	// cliques; refreshed by SetModel whenever θ changes.
	signedBase float64
	support    int32 // number of supporting cliques in the run
	// denom is the smoothed-trust denominator: the number of the source's
	// cliques outside this claim plus the two prior pseudo-counts; 0 when
	// the source has no other cliques, so the run has no trust term.
	denom int32
}

// claimRow is a claim's entry into the run table and the per-claim
// constants of the reassociated conditional (see fastLogOdds).
type claimRow struct {
	off int32 // first run; the claim's runs end at the next row's off
	nc  int32 // clique count, the divisor of the mean
	// scale is crf.OddsGain/nc.
	scale float64
	// base is Σ signedBase over the claim's runs; refreshed by SetModel.
	base float64
	// k[v] is Σ_r ((trustPriorAgree − a_r(v))·w_r − diff_r) over the runs
	// with a trust term, a_r(v) being the run's cliques that agree with
	// x_c = v: everything of the trust sum that does not depend on the
	// other claims.
	k [2]float64
	// The bracket half-width is errBase + |θ_T|·errTrust (DESIGN.md §7):
	// errBase follows signedBase and is refreshed by SetModel, errTrust
	// is structure only.
	errBase, errTrust float64
	// A u below uLo draws true and a u at or above uHi draws false in
	// every state of the other claims (see staticThresholds); set by
	// SetModel.
	uLo, uHi float32
}

// shardScratch is what one worker of a sharded run owns: its shuffle
// order and its detached RNG stream, reseeded per component.
type shardScratch struct {
	order []int32
	rng   *stats.RNG
}

// Chain is a persistent Gibbs chain over the claims of one fact database.
// A Chain is not safe for concurrent use; parallel what-if evaluation
// gives each worker a chain of its own that adopts the session's for
// one round (Adopt, Detach), and RunSharded may sweep disjoint
// components of one chain concurrently because components share no
// claims or sources.
type Chain struct {
	db     *factdb.DB
	rng    *stats.RNG
	x      []bool  // current assignment per claim
	frozen []bool  // claims pinned by user input
	agree  []int32 // per-source count of cliques agreeing with x
	trustW float64
	// Claim c's runs are entries claims[c].off … claims[c+1].off of the
	// four run columns. claims ends in a sentinel row whose base is the
	// θ_T the rows' uLo/uHi were set for: adopting chains share the
	// rows, so they share the stamp too. w is
	// 2·diff/denom rounded to float32, 0 for a run without a trust term;
	// diff is support − refute.
	claims []claimRow
	src    []int32
	w      []float32
	diff   []int32
	cold   []coldRun

	counts []int32  // scratch for RunComponentInto sample counting
	snap   Snapshot // scratch for SnapshotComponentScratch
	// shards is the per-worker sweep scratch: RunSharded's workers, and
	// worker 0's for Sweep and RefreshComponent. It grows on demand to
	// the widest section run since the table was built, and every order
	// holds all the chain's claims.
	shards []shardScratch
}

// NewChain returns a chain over db seeded by rng, its assignment drawn
// from the uniform distribution (all probabilities 0.5); its first
// SetModel builds its tables. Call InitFromState, after SetModel, to
// seed from an existing probabilistic state.
func NewChain(db *factdb.DB, rng *stats.RNG) *Chain {
	ch := &Chain{
		db:     db,
		rng:    rng,
		x:      make([]bool, db.NumClaims),
		frozen: make([]bool, db.NumClaims),
	}
	for c := range ch.x {
		ch.x[c] = rng.Bernoulli(0.5)
	}
	return ch
}

// buildRuns builds the run table over the chain's database — each
// claim's cliques grouped by source, in clique-appearance order — and
// zeroed agreement counters, for SetModel to fill. Every slice is
// fresh, so a chain that adopted the earlier table keeps it intact.
func (ch *Chain) buildRuns() {
	db, rows := ch.db, ch.db.Rows()
	ch.agree = make([]int32, len(db.Sources))
	total := make([]int32, len(db.Sources)) // per-source clique count
	for _, cl := range rows.Cliques {
		total[cl.Source]++
	}
	ch.claims = make([]claimRow, db.NumClaims+1)
	nRuns := 0
	for c := range db.NumClaims {
		nRuns += len(rows.ClaimSources(c))
	}
	src := make([]int32, 0, nRuns)
	diff := make([]int32, 0, nRuns)
	cold := make([]coldRun, 0, nRuns)
	w := make([]float32, 0, nRuns)
	// slot maps a source to its run; an entry below the current claim's
	// first run is left over from an earlier claim.
	slot := make([]int32, len(db.Sources))
	for s := range slot {
		slot[s] = -1
	}
	for c := range db.NumClaims {
		cliques := rows.ClaimCliques(c)
		first := int32(len(src))
		for _, ci := range cliques {
			cl := rows.Cliques[ci]
			if slot[cl.Source] < first {
				slot[cl.Source] = int32(len(src))
				src = append(src, cl.Source)
				diff = append(diff, 0)
				cold = append(cold, coldRun{})
			}
			r := slot[cl.Source]
			if cl.Stance == factdb.Support {
				cold[r].support++
				diff[r]++
			} else {
				diff[r]--
			}
		}
		row := &ch.claims[c]
		row.off, row.nc = first, int32(len(cliques))
		row.scale = crf.OddsGain / float64(len(cliques))
		// fast and def sum, per run with a trust term, the magnitudes of
		// the terms fastLogOdds and LogOdds add up for it — the first
		// over every state the chain can reach (agree ≤ total).
		var fast, def float64
		for r := int(first); r < len(src); r++ {
			support, d := cold[r].support, diff[r]
			refute := support - d
			wr := float32(0)
			if excl := total[src[r]] - support - refute; excl > 0 {
				cold[r].denom = excl + int32(trustPriorAgree+trustPriorDisagree)
				wr = float32(2 * float64(d) / float64(cold[r].denom))
				row.k[0] += (trustPriorAgree-float64(refute))*float64(wr) - float64(d)
				row.k[1] += (trustPriorAgree-float64(support))*float64(wr) - float64(d)
				absD := math.Abs(float64(d))
				fast += (float64(total[src[r]])+trustPriorAgree+float64(max(support, refute)))*math.Abs(float64(wr)) + absD
				def += 3 * absD
			}
			w = append(w, wr)
		}
		g := boundGamma(len(src) - int(first))
		row.errTrust = boundMargin * row.scale * (g*(fast+def) + roundoff32*(1+g)*fast)
	}
	ch.claims[db.NumClaims].off = int32(len(src))
	ch.src, ch.w, ch.diff, ch.cold = src, w, diff, cold
	ch.shards = nil // sized by the claim count, which Grow changes
}

// Grow extends the chain in place after the database was grown with
// factdb.DB.Extend: new claims get slots (their initial values drawn
// from the caller's detached rng, never the chain's own stream, so
// growth does not perturb later full sweeps) and the tables, built for
// the smaller database, are dropped (Release). No chain may be adopting
// this one meanwhile.
func (ch *Chain) Grow(rng *stats.RNG) {
	for len(ch.x) < ch.db.NumClaims {
		ch.x = append(ch.x, rng.Bernoulli(0.5))
		ch.frozen = append(ch.frozen, false)
	}
	ch.Release()
}

// Release drops everything of the chain that is derived from the
// database, θ or the assignment — the run table, the agreement counters
// and the sweep, sample-count and snapshot scratch — and keeps the
// chain's own state: assignment, frozen flags, stream and trust weight.
// A released session holds its chain so (DESIGN.md §7). A released chain
// must not be swept, adopted or synced to labels until SetModel rebuilds
// the rest exactly as it was built.
func (ch *Chain) Release() {
	ch.claims, ch.src, ch.w, ch.diff, ch.cold, ch.agree = nil, nil, nil, nil, nil, nil
	ch.counts, ch.snap, ch.shards = nil, Snapshot{}, nil
}

// Released reports whether the chain holds no tables: new, grown,
// installed from an image or released, and not yet given a model.
func (ch *Chain) Released() bool { return ch.claims == nil }

// SetModel installs the clique base scores derived from the current θ and
// the trust coupling weight; must be called after every M-step. On a
// released chain it first builds the run table and agreement counters,
// the one place they are built.
func (ch *Chain) SetModel(m *crf.Model) {
	if ch.Released() {
		ch.buildRuns()
		ch.recount()
	}
	base, rows := m.BaseScores(), ch.db.Rows()
	ch.trustW = m.TrustWeight()
	// Claim by claim, so each run sums its cliques in appearance order:
	// slot points each of the claim's sources at its run, then every
	// clique of the claim adds into its source's run. Both arrays are
	// the M-step's scratch, borrowed for the call (optimize.Scratch).
	slot := optimize.Int32s.Borrow(len(ch.db.Sources))
	for c := range ch.claims[:len(ch.claims)-1] {
		row := &ch.claims[c]
		lo, hi := row.off, ch.claims[c+1].off
		for r := lo; r < hi; r++ {
			slot[ch.src[r]] = r
			ch.cold[r].signedBase = 0
		}
		for _, ci := range rows.ClaimCliques(c) {
			cl := rows.Cliques[ci]
			ch.cold[slot[cl.Source]].signedBase += cl.Stance.Sign() * base[ci]
		}
		rs := ch.cold[lo:hi]
		sum, abs := 0.0, 0.0
		for i := range rs {
			sum += rs[i].signedBase
			abs += math.Abs(rs[i].signedBase)
		}
		g := boundGamma(len(rs))
		row.base = sum
		row.errBase = boundMargin*row.scale*2*g*abs + underflowPad
		row.uLo, row.uHi = ch.staticThresholds(c, g)
	}
	ch.claims[len(ch.claims)-1].base = ch.trustW
	optimize.Floats.Return(base)
	optimize.Int32s.Return(slot)
}

// InitFromState samples each unlabelled claim's value from state.P and
// clamps labelled claims to their user input.
func (ch *Chain) InitFromState(state *factdb.State) {
	for c := 0; c < len(ch.x); c++ {
		if v, ok := state.Label(c); ok {
			ch.x[c] = v
			ch.frozen[c] = true
		} else {
			ch.x[c] = ch.rng.Bernoulli(state.P(c))
			ch.frozen[c] = false
		}
	}
	ch.recount()
}

// SyncLabels clamps newly labelled claims without disturbing the rest of
// the chain — the incremental path taken after each validation iteration.
func (ch *Chain) SyncLabels(state *factdb.State) {
	for c := 0; c < len(ch.x); c++ {
		if v, ok := state.Label(c); ok {
			ch.frozen[c] = true
			ch.setValue(c, v)
		} else {
			ch.frozen[c] = false
		}
	}
}

// recount rebuilds the per-source agreement counters from x.
func (ch *Chain) recount() {
	for s := range ch.agree {
		ch.agree[s] = 0
	}
	for _, cl := range ch.db.Rows().Cliques {
		if ch.agrees(cl) {
			ch.agree[cl.Source]++
		}
	}
}

func (ch *Chain) agrees(cl factdb.Clique) bool {
	return ch.x[cl.Claim] == (cl.Stance == factdb.Support)
}

// setValue assigns claim c the value v, maintaining agreement counters.
func (ch *Chain) setValue(c int, v bool) {
	if ch.x[c] == v {
		return
	}
	// Flipping x[c] flips the agreement of every clique of c: towards
	// true, support cliques start agreeing and refute ones stop.
	lo, hi := ch.claims[c].off, ch.claims[c+1].off
	src, diff := ch.src[lo:hi], ch.diff[lo:hi]
	for i, s := range src {
		delta := diff[i]
		if !v {
			delta = -delta
		}
		ch.agree[s] += delta
	}
	ch.x[c] = v
}

// Trust smoothing pseudo-counts: agreement counts are shrunk toward an
// honesty prior of a/(a+b) = 2/3 before entering the coupling. This
// (i) damps the ±1 trust estimates of sources with few observations and
// (ii) tilts the coupling's two self-consistent fixed points ("sources
// honest" vs "sources lying") toward the honest one, matching the
// paper's premise that claims from trustworthy sources are more likely
// credible (§3.1).
const (
	trustPriorAgree    = 2.0
	trustPriorDisagree = 1.0
)

// smoothedTrust maps an agreement count and a run's smoothed
// denominator to [−1, 1].
func smoothedTrust(agree, denom float64) float64 {
	return 2*(agree+trustPriorAgree)/denom - 1
}

// LogOdds returns the conditional log-odds of claim c = 1 given the rest
// of the chain: the average stance-signed clique score scaled by
// crf.OddsGain, where each clique's score is its static base plus
// θ_T·trust_excl, and trust_excl is the smoothed stance agreement of the
// clique's source computed over its cliques excluding those of c
// (avoiding self-reinforcement). The summation order — base, then trust
// term, run by run — is part of the sampler's contract: selection traces
// are compared bit for bit.
func (ch *Chain) LogOdds(c int) float64 {
	lo, hi := ch.claims[c].off, ch.claims[c+1].off
	rs := ch.cold[lo:hi]
	l := 0.0
	if tw := ch.trustW; tw == 0 {
		for i := range rs {
			l += rs[i].signedBase
		}
	} else {
		src, diff := ch.src[lo:hi], ch.diff[lo:hi]
		curr := ch.x[c]
		for i := range rs {
			rn := &rs[i]
			l += rn.signedBase
			if rn.denom != 0 {
				a := rn.support - diff[i] // the run's refuting cliques
				if curr {
					a = rn.support
				}
				trust := smoothedTrust(float64(ch.agree[src[i]]-a), float64(rn.denom))
				l += tw * trust * float64(diff[i])
			}
		}
	}
	if len(rs) == 0 {
		return 0
	}
	return crf.OddsGain * l / float64(ch.claims[c].nc)
}

// The error model of fastLogOdds (DESIGN.md §7 has the derivation).
const (
	roundoff   = 1.0 / (1 << 53) // unit roundoff of float64
	roundoff32 = 1.0 / (1 << 24) // and of float32, the rounding of w
	// boundMargin is how many proved bounds wide the bracket is on either
	// side: the proof is over the reals, its evaluation in SetModel and
	// buildRuns rounds too.
	boundMargin = 4
	// underflowPad covers what a relative bound cannot: results below
	// the normal range round with an absolute error of 2⁻¹⁰⁷⁵ each.
	underflowPad = 1e-300
)

// boundGamma is Higham's γ_k = k·u/(1 − k·u), the relative error k
// successive roundings compound to at most, for the most roundings a
// term passes through on its way into either conditional of a claim
// with n runs: 2n + 6 in LogOdds (quotient, −1, two products, two
// additions a run, gain, mean), n + 8 in fastLogOdds.
func boundGamma(n int) float64 {
	ku := float64(2*n+8) * roundoff
	return ku / (1 - ku)
}

// fastLogOdds returns l̃, the real number LogOdds(c) computes evaluated in
// another association — scale·(base + θ_T·(Σ_r agree[src_r]·w_r +
// k[x_c])), no division, the sum in two independent accumulators over
// 8 bytes a run — and δ with |l̃ − LogOdds(c)| ≤ δ/boundMargin whenever
// both are finite.
func (ch *Chain) fastLogOdds(c int) (l, delta float64) {
	row := &ch.claims[c]
	tw := ch.trustW
	l = row.base
	if tw != 0 {
		lo, hi := row.off, ch.claims[c+1].off
		src, w, agree := ch.src[lo:hi], ch.w[lo:hi], ch.agree
		w = w[:len(src)]
		var s0, s1 float64
		i := 0
		for ; i < len(src)-1; i += 2 {
			s0 += float64(agree[src[i]]) * float64(w[i])
			s1 += float64(agree[src[i+1]]) * float64(w[i+1])
		}
		if i < len(src) {
			s0 += float64(agree[src[i]]) * float64(w[i])
		}
		k := row.k[0]
		if ch.x[c] {
			k = row.k[1]
		}
		l += tw * (s0 + s1 + k)
	}
	return row.scale * l, row.errBase + math.Abs(tw)*row.errTrust
}

// bracket is the cheap stage of draw: LogOdds(c) lies in [l̃ − δ, l̃ + δ],
// so the sigmoid table brackets its sigmoid between the cell of the lower
// end and the cell of the upper, and a u more than sigmoidSlack outside
// that bracket is decided (ok) without the exact log-odds. An interval
// that is not finite or leaves the grid decides nothing; that includes a
// claim without cliques, whose scale is +Inf.
func (ch *Chain) bracket(u float64, c int) (v, ok bool) {
	l, delta := ch.fastLogOdds(c)
	if lo, hi := l-delta, l+delta; lo > -12 && hi < 12 {
		if u < sigmoidTab[sigmoidCell(lo)]-sigmoidSlack {
			return true, true
		}
		if u >= sigmoidTab[sigmoidCell(hi)+1]+sigmoidSlack {
			return false, true
		}
	}
	return false, false
}

// staticInterval returns [lo, hi] and μ with LogOdds(c) in
// [lo − μ, hi + μ] in every state of the other claims (DESIGN.md §7):
// over the reals a run's trust is 2(A−a+2)/D − 1 with the source's
// agreement outside the claim, A − a, anywhere in [0, D − 3], so the run
// adds between the smaller and the larger of θ_T·d·(4/D − 1) and
// θ_T·d·(1 − 2/D); μ bounds the rounding of LogOdds and of this
// evaluation together. g is boundGamma of the claim's run count, taken
// from SetModel: another inlined boundGamma would be another fused
// multiply-add on arm64 (ROADMAP item 11).
func (ch *Chain) staticInterval(c int, g float64) (lo, hi, mu float64) {
	row := &ch.claims[c]
	tw := ch.trustW
	sumD := 0 // Σ|d| over the runs with a trust term
	if tw != 0 {
		for r := row.off; r < ch.claims[c+1].off; r++ {
			denom := ch.cold[r].denom
			if denom == 0 {
				continue
			}
			d := ch.diff[r]
			p := tw * float64(d)
			a, b := p*(4/float64(denom)-1), p*(1-2/float64(denom))
			lo += min(a, b)
			hi += max(a, b)
			sumD += int(max(d, -d))
		}
	}
	mu = row.errBase + float64(math.Abs(tw)*(boundMargin*row.scale*6*g*float64(sumD)))
	return row.scale * (row.base + lo), row.scale * (row.base + hi), mu
}

// staticThresholds turns claim c's static interval into the two
// thresholds of draw's first stage, widened by the squeeze's slack and
// rounded outward to float32. A μ that is not below 1 decides nothing:
// that covers every interval that is not finite — a claim without
// cliques (scale +Inf), θ with NaN or ±Inf — and any θ large enough for
// an intermediate of LogOdds to overflow, which the interval would not
// bound (μ < 1 keeps its magnitudes below 10²⁴).
func (ch *Chain) staticThresholds(c int, g float64) (uLo, uHi float32) {
	lo, hi, mu := ch.staticInterval(c, g)
	if !(mu < 1) {
		return float32(math.Inf(-1)), float32(math.Inf(1))
	}
	pLo, pHi := stats.Sigmoid(lo-mu)-sigmoidSlack, stats.Sigmoid(hi+mu)+sigmoidSlack
	uLo, uHi = float32(pLo), float32(pHi)
	if float64(uLo) > pLo {
		uLo = math.Nextafter32(uLo, float32(math.Inf(-1)))
	}
	if float64(uHi) < pHi {
		uHi = math.Nextafter32(uHi, float32(math.Inf(1)))
	}
	return uLo, uHi
}

// static is the first stage of draw: claim c's thresholds, which hold in
// every state, decide u without reading a run. Since uLo ≤ uHi, u is
// decided exactly when it lies on the same side of both — true below
// uLo, false at or above uHi — so one compare of the two flags tells,
// and a row at ∓Inf decides nothing. The thresholds hold only for the
// θ_T they were set for; see fresh.
func (ch *Chain) static(u float64, c int) (v, ok bool) {
	row := &ch.claims[c]
	v = u < float64(row.uLo)
	return v, v == (u < float64(row.uHi))
}

// fresh reports whether the static thresholds were set for the chain's
// θ_T. An adopting chain not yet resynced after SetModel shares rows set
// for another, and its draws must skip the static stage.
func (ch *Chain) fresh() bool { return ch.trustW == ch.claims[len(ch.claims)-1].base }

// draw reports u < stats.Sigmoid(ch.LogOdds(c)), bit for bit, in three
// stages: the claim's static thresholds when fresh — which must be
// ch.fresh(), asked once per sweep rather than once per draw — then
// bracket, and what neither decides falls through to the definition.
// The first stage is inlined here; the others stay out of line.
func (ch *Chain) draw(u float64, c int, fresh bool) bool {
	if v, ok := ch.static(u, c); ok && fresh {
		return v
	}
	return ch.drawSlow(u, c)
}

// drawSlow is draw past its static stage: bracket, then the definition.
//
//go:noinline
func (ch *Chain) drawSlow(u float64, c int) bool {
	if v, ok := ch.bracket(u, c); ok {
		return v
	}
	return below(u, ch.LogOdds(c))
}

// Value returns the current assignment of claim c.
func (ch *Chain) Value(c int) bool { return ch.x[c] }

// Sweep performs one Gibbs pass over the given claims in random order,
// skipping frozen claims. A nil claim list sweeps all claims.
func (ch *Chain) Sweep(claims []int32) {
	order := ch.shardScratch(1)[0].order
	if claims == nil {
		for i := range order {
			order[i] = int32(i)
		}
		claims = order
	}
	ch.sweepShard(claims, order[:len(claims)], ch.rng)
}

// RunSharded executes burn discarded sweeps followed by samples recorded
// sweeps over all claims and returns the collected sample set Ω,
// component-sharded (§5.1): connected components of the claim graph are
// independent blocks of the CRF, so each is swept by its own
// deterministic RNG stream, with up to workers goroutines processing
// components concurrently (workers <= 0 means GOMAXPROCS; the calling
// goroutine is one of them, and under a non-nil lanes the others are
// borrowed for the duration of the call — see Lender). Non-positive
// burn and samples are treated as zero; an empty sample set reports 0.5
// marginals rather than dividing by zero. Components are closed under shared sources, so a
// component's sweeps touch only its own claims and per-source agreement
// counters — shards never contend. Sample bits of claims sharing a word
// are merged with atomic OR, which commutes, so the returned Ω is
// bit-identical for a fixed chain state regardless of worker count or
// scheduling order.
func (ch *Chain) RunSharded(burn, samples, workers int, lanes Lender) *SampleSet {
	if burn < 0 {
		burn = 0
	}
	if samples < 0 {
		samples = 0
	}
	nComp := ch.db.NumComponents()
	// One base draw from the chain's own stream; per-component streams
	// derive from it without advancing the parent further, keeping the
	// parent chain's RNG consumption independent of the sharding.
	base := ch.rng.Uint64()
	ss := newDenseSampleSet(len(ch.x), samples)
	extra := Borrow(lanes, workers, nComp)
	defer Return(lanes, extra)
	scratch := ch.shardScratch(1 + extra)
	if extra == 0 {
		// Fan's serial loop spelled out: a body handed to Fan escapes, and
		// a serial section should cost no allocation.
		for comp := 0; comp < nComp; comp++ {
			ch.runShard(ss, comp, base, burn, samples, scratch[0])
		}
		return ss
	}
	Fan(nComp, extra, func(w, comp int) {
		ch.runShard(ss, comp, base, burn, samples, scratch[w])
	})
	return ss
}

// runShard is RunSharded's task: component comp swept burn + samples
// times on worker scratch sh, its stream derived from the section's base.
func (ch *Chain) runShard(ss *SampleSet, comp int, base uint64, burn, samples int, sh shardScratch) {
	members := ch.db.ComponentMembers(comp)
	order := sh.order[:len(members)]
	sh.rng.Reseed(stats.StreamSeed(base, uint64(comp)))
	for i := 0; i < burn; i++ {
		ch.sweepShard(members, order, sh.rng)
	}
	for k := 0; k < samples; k++ {
		ch.sweepShard(members, order, sh.rng)
		ss.recordShard(k, members, ch.x)
	}
}

// RefreshComponent resamples one component of ss in place: burn
// discarded sweeps followed by one recorded sweep per existing sample,
// all restricted to the component's members and driven by a detached
// RNG stream seeded from seed — the chain's own stream does not advance,
// so refreshing a component never perturbs later full sweeps. This is
// the sampling kernel of the per-answer incremental inference path: a
// new label only changes the distribution of its own connected component
// (components share no claims or sources, and the model parameters stay
// frozen between EM sweeps), so only that component's slice of Ω* needs
// replacing.
func (ch *Chain) RefreshComponent(ss *SampleSet, comp, burn int, seed int64) {
	members := ch.db.ComponentMembers(comp)
	sh := ch.shardScratch(1)[0]
	order := sh.order[:len(members)]
	sh.rng.Reseed(seed)
	for i := 0; i < burn; i++ {
		ch.sweepShard(members, order, sh.rng)
	}
	for k := 0; k < ss.NumSamples(); k++ {
		ch.sweepShard(members, order, sh.rng)
		ss.SetShard(k, members, ch.x)
	}
}

// shardScratch returns the scratch of workers 0 … n−1, allocating what
// no earlier section has — each worker's own allocations, so neighbours
// never share a cache line.
func (ch *Chain) shardScratch(n int) []shardScratch {
	for len(ch.shards) < n {
		ch.shards = append(ch.shards, shardScratch{
			order: make([]int32, len(ch.x)),
			rng:   newLaneRNG(),
		})
	}
	return ch.shards[:n]
}

// laneRNG is an RNG on a cache line of its own: 64 bytes, the size class
// whose objects start on 64-byte boundaries. A stream is the most
// written word of a sweep, and the streams of concurrent lanes — the
// shard scratch of one section, the chains a scoring round borrows —
// are allocated back to back; as bare 16-byte objects they share a
// line, and every draw of one lane invalidates the other's copy (a
// quarter of served what-if throughput on one connected component).
type laneRNG struct {
	stats.RNG
	_ [48]byte
}

// newLaneRNG returns NewRNG(0)'s stream on a line of its own.
func newLaneRNG() *stats.RNG {
	r := &new(laneRNG).RNG
	r.Reseed(0)
	return r
}

// sweepShard performs one Gibbs pass over the given component members in
// an order shuffled by the shard's own RNG stream. The caller guarantees
// that no other goroutine touches the members' claims or their sources'
// agreement counters.
func (ch *Chain) sweepShard(members, order []int32, rng *stats.RNG) {
	copy(order, members)
	for i := len(order) - 1; i > 0; i-- { // stats.RNG.Shuffle's draws
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	// Frozen claims draw no u: keep the unfrozen ones, in shuffled order,
	// at the front, without a branch.
	n := 0
	for _, c := range order {
		order[n] = c
		n += b2i(!ch.frozen[c])
	}
	fresh := ch.fresh()
	for _, c := range order[:n] {
		ch.setValue(int(c), ch.draw(rng.Float64(), int(c), fresh))
	}
}

// b2i is 1 for true and 0 for false; the compiler makes it a zero
// extension, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sigmoidTab[k] is stats.Sigmoid at the grid point k/16 − 12; the grid
// spans [−12, 12].
var sigmoidTab = func() (t [385]float64) {
	for k := range t {
		t[k] = stats.Sigmoid(float64(k)/16 - 12)
	}
	return t
}()

// SigmoidTable returns a copy of the grid draw's stages read: stats.Sigmoid
// at k/16 − 12 for k = 0 … 384, as this process's math.Exp evaluated it
// at start-up. State images fold it into their arithmetic identity.
func SigmoidTable() []float64 { return slices.Clone(sigmoidTab[:]) }

// sigmoidSlack is the margin by which below distrusts the table. The
// cell index may be off by one for an l at a cell edge, and a computed
// sigmoid may stray from the true, monotone one by a few ulps (≈ 1e−16);
// both errors are six orders of magnitude inside the slack.
const sigmoidSlack = 1e-9

// sigmoidCell is the grid cell of an l in (−12, 12): sigmoidTab[k] and
// sigmoidTab[k+1] bracket its sigmoid.
func sigmoidCell(l float64) int {
	return min(int((l+12)*16), len(sigmoidTab)-2) // l+12 may round up to 24
}

// below reports u < stats.Sigmoid(l), bit for bit, mostly without the
// exponential: l's grid cell brackets Sigmoid(l) between two table
// entries, and only a u within sigmoidSlack of that bracket — or an l
// off the grid, NaN included — needs the sigmoid itself.
func below(u, l float64) bool {
	if l > -12 && l < 12 {
		k := sigmoidCell(l)
		if u < sigmoidTab[k]-sigmoidSlack {
			return true
		}
		if u >= sigmoidTab[k+1]+sigmoidSlack {
			return false
		}
	}
	return u < stats.Sigmoid(l)
}

// ComponentResult carries the marginals of one component's claims after a
// restricted run; Members aligns with Marginals.
type ComponentResult struct {
	Members   []int32
	Marginals []float64
}

// RunComponentInto executes a Gibbs run restricted to the claims of the
// given component, recording marginals only for those claims. It is the
// workhorse of the what-if inference behind information gain (§4.2),
// exploiting the graph-partitioning optimisation of §5.1. The result's
// Marginals reuse marg's backing array when its capacity suffices (nil
// allocates), so a worker scoring many hypotheticals allocates nothing
// in steady state. The per-sample counting scratch lives on the chain. With
// samples <= 0 no sweeps are recorded and every marginal is 0.5 — the
// maximum-entropy answer — instead of the NaN a 0/0 division would
// produce.
func (ch *Chain) RunComponentInto(marg []float64, comp, burn, samples int) ComponentResult {
	members := ch.db.ComponentMembers(comp)
	if cap(marg) < len(members) {
		marg = make([]float64, len(members))
	}
	marg = marg[:len(members)]
	if samples <= 0 {
		for j := range marg {
			marg[j] = 0.5
		}
		return ComponentResult{Members: members, Marginals: marg}
	}
	for i := 0; i < burn; i++ {
		ch.Sweep(members)
	}
	if cap(ch.counts) < len(members) {
		ch.counts = make([]int32, len(members))
	}
	counts := ch.counts[:len(members)]
	for j := range counts {
		counts[j] = 0
	}
	for i := 0; i < samples; i++ {
		ch.Sweep(members)
		for j, c := range members {
			counts[j] += int32(b2i(ch.x[c]))
		}
	}
	for j := range marg {
		marg[j] = float64(counts[j]) / float64(samples)
	}
	return ComponentResult{Members: members, Marginals: marg}
}

// SkipRunComponent moves the chain's stream to where
// RunComponentInto(_, comp, burn, samples) would leave it with claim
// clamped — a member of comp — frozen besides the chain's own frozen
// claims, without sweeping. Each of the burn + samples sweeps draws a
// word per step of the shuffle of the component's n members, n − 1, and
// one per unfrozen member, so the count is a function of the structure
// and the frozen flags alone.
func (ch *Chain) SkipRunComponent(comp, clamped, burn, samples int) {
	if samples <= 0 {
		return
	}
	members := ch.db.ComponentMembers(comp)
	words := len(members) - 1 - b2i(!ch.frozen[clamped])
	for _, c := range members {
		words += b2i(!ch.frozen[c])
	}
	for k := (max(burn, 0) + samples) * words; k > 0; k-- {
		ch.rng.Uint64()
	}
}

// Freeze pins claim c to value v for subsequent sweeps (what-if clamping);
// Unfreeze releases it.
func (ch *Chain) Freeze(c int, v bool) {
	ch.frozen[c] = true
	ch.setValue(c, v)
}

// Unfreeze releases a claim pinned by Freeze.
func (ch *Chain) Unfreeze(c int) { ch.frozen[c] = false }

// Snapshot captures the chain state of one component (claim values,
// source agreement counters and frozen flags) so a what-if excursion can
// be rolled back in O(component size).
type Snapshot struct {
	comp    int
	xvals   []bool
	frozen  []bool
	agree   []int32
	sources []int32
}

// SnapshotComponentScratch captures the state of component comp in
// chain-owned scratch storage: what-if excursions snapshot and restore
// in strict LIFO order, so at most one snapshot is live per chain and
// the hot scoring loop allocates nothing. A second call invalidates the
// first snapshot.
func (ch *Chain) SnapshotComponentScratch(comp int) Snapshot {
	snap := &ch.snap
	members := ch.db.ComponentMembers(comp)
	srcs := ch.db.Rows().ComponentSources(comp)
	if cap(snap.xvals) < len(members) {
		snap.xvals = make([]bool, len(members))
		snap.frozen = make([]bool, len(members))
	}
	if cap(snap.agree) < len(srcs) {
		snap.agree = make([]int32, len(srcs))
	}
	snap.comp = comp
	snap.xvals = snap.xvals[:len(members)]
	snap.frozen = snap.frozen[:len(members)]
	snap.agree = snap.agree[:len(srcs)]
	snap.sources = srcs
	for i, c := range members {
		snap.xvals[i] = ch.x[c]
		snap.frozen[i] = ch.frozen[c]
	}
	for i, s := range srcs {
		snap.agree[i] = ch.agree[s]
	}
	return *snap
}

// Restore rolls the chain back to a snapshot taken with
// SnapshotComponentScratch.
func (ch *Chain) Restore(snap Snapshot) {
	members := ch.db.ComponentMembers(snap.comp)
	for i, c := range members {
		ch.x[c] = snap.xvals[i]
		ch.frozen[c] = snap.frozen[i]
	}
	for i, s := range snap.sources {
		ch.agree[s] = snap.agree[i]
	}
}

// Adopt makes ch a what-if copy of src, the chain a scoring worker
// borrows for one round: ch points at src's database and run table —
// and so at the θ_T stamp SetModel left on it — and copies src's
// assignment, frozen flags, agreement counters and trust weight into
// its own buffers, grown to src's size, as is the shard order Sweep
// shuffles in; snapshot and count scratch grow on their next use. The
// buffers outlive the adoption and serve the next, whichever chain that
// copies. ch's stream is left where it is (a fresh chain's
// is NewRNG(0)): scoring reseeds per task, and adopting never advances
// src's. SetModel and Grow must not run on src while ch is in use.
func (ch *Chain) Adopt(src *Chain) {
	ch.db, ch.claims, ch.src, ch.w, ch.diff, ch.cold = src.db, src.claims, src.src, src.w, src.diff, src.cold
	ch.x = slices.Grow(ch.x[:0], len(src.x))[:len(src.x)]
	ch.frozen = slices.Grow(ch.frozen[:0], len(src.frozen))[:len(src.frozen)]
	ch.agree = slices.Grow(ch.agree[:0], len(src.agree))[:len(src.agree)]
	ch.CopyStateFrom(src)
	for i := range ch.shards {
		ch.shards[i].order = slices.Grow(ch.shards[i].order[:0], len(ch.x))[:len(ch.x)]
	}
	if ch.rng == nil {
		ch.rng = newLaneRNG()
	}
}

// Detach drops every reference ch holds into the chain it adopted —
// database, run table, the snapshot's source list — and keeps only its
// own buffers, so a chain parked between adoptions pins nothing of a
// session that may since have been deleted or spilled.
func (ch *Chain) Detach() {
	ch.db, ch.claims, ch.src, ch.w, ch.diff, ch.cold = nil, nil, nil, nil, nil, nil
	ch.snap.sources = nil
}

// CopyStateFrom resynchronises a chain that shares src's run table and
// size without allocating: assignment, frozen flags, agreement counters
// and the trust weight are copied (the rows' base scores are shared and
// refreshed in place by SetModel).
func (ch *Chain) CopyStateFrom(src *Chain) {
	copy(ch.x, src.x)
	copy(ch.frozen, src.frozen)
	copy(ch.agree, src.agree)
	ch.trustW = src.trustW
}

// Reseed resets the chain's RNG in place to a deterministic stream.
// Scoring pools reseed a worker's chain per candidate so each what-if
// evaluation is a pure function of (chain state, candidate, seed),
// independent of which worker runs it.
func (ch *Chain) Reseed(seed int64) { ch.rng.Reseed(seed) }
