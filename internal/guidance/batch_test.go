package guidance

import (
	"math"
	"testing"
	"testing/quick"

	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

// corrDB builds claims 0,1 sharing two sources, claims 1,2 sharing one,
// and claim 3 isolated.
func corrDB(t *testing.T) *factdb.DB {
	t.Helper()
	db := &factdb.DB{NumClaims: 4}
	for s := 0; s < 4; s++ {
		db.AddSource(nil)
	}
	for _, d := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 3}} { // source, claim
		db.AddDocument(d[0], nil, factdb.ClaimRef{Claim: d[1], Stance: factdb.Support})
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	return db
}

// utility is the test oracle for GreedyBatch's incremental update: it
// evaluates F(B) of Eq. 27 for a set of candidate indices:
// F(B) = w·Σ_{c∈B} q(c)·IG(c) − Σ_{c,c′∈B} IG(c)·M(c,c′)·IG(c′)
// (the redundancy sum ranges over ordered pairs including the diagonal,
// matching the incremental update of §6.2).
func utility(corr *Correlation, ig, q []float64, w float64, set []int) float64 {
	f := 0.0
	for _, i := range set {
		f += w * q[i] * ig[i]
	}
	for _, i := range set {
		for _, j := range set {
			f -= ig[i] * corr.At(i, j) * ig[j]
		}
	}
	return f
}

// bruteForceBatch exhaustively maximises F over all k-subsets; it is the
// test oracle for the greedy guarantee (the literal selectAB of Eq. 28).
func bruteForceBatch(corr *Correlation, ig, q []float64, w float64, k int) ([]int, float64) {
	n := len(ig)
	if k > n {
		k = n
	}
	idx := make([]int, k)
	var best []int
	bestF := 0.0
	first := true
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			f := utility(corr, ig, q, w, idx)
			if first || f > bestF {
				bestF = f
				best = append([]int(nil), idx...)
				first = false
			}
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return best, bestF
}

func TestCorrelationMatrix(t *testing.T) {
	db := corrDB(t)
	corr := NewCorrelation(db, []int{0, 1, 2, 3})
	// Max shared count: claims 0-1 share sources {0,1} = 2; also the
	// diagonal of claim 1 is |{0,1,2}| = 3 — the max.
	if corr.At(0, 1) != corr.At(1, 0) {
		t.Fatal("correlation not symmetric")
	}
	if corr.At(0, 1) <= 0 {
		t.Fatal("claims 0,1 share sources, M must be positive")
	}
	if corr.At(0, 3) != 0 || corr.At(2, 3) != 0 {
		t.Fatal("isolated claim must have zero correlation")
	}
	if corr.At(0, 1) <= corr.At(1, 2) {
		t.Fatalf("two shared sources (%v) should beat one (%v)", corr.At(0, 1), corr.At(1, 2))
	}
	// All entries in [0,1].
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if corr.At(i, j) < 0 || corr.At(i, j) > 1 {
				t.Fatalf("M(%d,%d) = %v", i, j, corr.At(i, j))
			}
		}
	}
}

func TestImportance(t *testing.T) {
	db := corrDB(t)
	corr := NewCorrelation(db, []int{0, 1, 2, 3})
	ig := []float64{1, 1, 1, 1}
	q := corr.Importance(ig)
	// Claim 1 touches the most shared sources, so it must be the most
	// important; claim 3 only correlates with itself.
	if q[1] <= q[3] {
		t.Fatalf("importance: q = %v", q)
	}
}

func TestUtilityAndGreedyAgreeOnSingle(t *testing.T) {
	db := corrDB(t)
	claims := []int{0, 1, 2, 3}
	corr := NewCorrelation(db, claims)
	ig := []float64{0.5, 0.9, 0.4, 0.3}
	q := corr.Importance(ig)
	sel := GreedyBatch(corr, ig, q, 4, 1)
	if len(sel) != 1 {
		t.Fatalf("selected %v", sel)
	}
	// The greedy single pick must maximise F over singletons.
	bestF := math.Inf(-1)
	best := -1
	for i := range claims {
		f := utility(corr, ig, q, 4, []int{i})
		if f > bestF {
			bestF, best = f, i
		}
	}
	if sel[0] != best {
		t.Fatalf("greedy picked %d, singleton max is %d", sel[0], best)
	}
}

func TestGreedyIncrementalUpdateMatchesDirectComputation(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 3 + r.Intn(7)
		// Random symmetric M with unit diagonal scale and random gains.
		corr := &Correlation{claims: make([]int, n), m: make([][]float64, n)}
		for i := 0; i < n; i++ {
			corr.m[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := r.Float64()
				corr.m[i][j] = v
				corr.m[j][i] = v
			}
		}
		ig := make([]float64, n)
		for i := range ig {
			ig[i] = r.Float64()
		}
		q := corr.Importance(ig)
		w := 1 + 3*r.Float64()
		k := 1 + r.Intn(n)
		sel := GreedyBatch(corr, ig, q, w, k)
		if len(sel) != k {
			return false
		}
		// Replay the greedy using direct F evaluations.
		var direct []int
		used := make([]bool, n)
		for len(direct) < k {
			best, bestGain := -1, math.Inf(-1)
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				gain := utility(corr, ig, q, w, append(append([]int{}, direct...), i)) -
					utility(corr, ig, q, w, direct)
				if gain > bestGain+1e-12 {
					best, bestGain = i, gain
				}
			}
			used[best] = true
			direct = append(direct, best)
		}
		for i := range sel {
			if sel[i] != direct[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUtilitySubmodular(t *testing.T) {
	// F(A ∪ {x}) − F(A) ≥ F(B ∪ {x}) − F(B) for A ⊆ B, x ∉ B, with
	// non-negative IG and M.
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 4 + r.Intn(5)
		corr := &Correlation{claims: make([]int, n), m: make([][]float64, n)}
		for i := 0; i < n; i++ {
			corr.m[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := r.Float64()
				corr.m[i][j] = v
				corr.m[j][i] = v
			}
		}
		ig := make([]float64, n)
		for i := range ig {
			ig[i] = r.Float64()
		}
		q := corr.Importance(ig)
		w := 2.0
		// A = {0}, B = {0,1}, x = 2 (valid since n >= 4).
		a := []int{0}
		b := []int{0, 1}
		gainA := utility(corr, ig, q, w, append(append([]int{}, a...), 2)) - utility(corr, ig, q, w, a)
		gainB := utility(corr, ig, q, w, append(append([]int{}, b...), 2)) - utility(corr, ig, q, w, b)
		return gainA >= gainB-1e-9
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGreedyMeetsApproximationGuarantee(t *testing.T) {
	// Greedy F(B) must be >= (1 − 1/e)·OPT on monotone instances.
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 4 + r.Intn(4)
		corr := &Correlation{claims: make([]int, n), m: make([][]float64, n)}
		for i := 0; i < n; i++ {
			corr.m[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				// Small off-diagonal redundancy keeps F monotone.
				v := 0.2 * r.Float64()
				if i == j {
					v = 0.5
				}
				corr.m[i][j] = v
				corr.m[j][i] = v
			}
		}
		ig := make([]float64, n)
		for i := range ig {
			ig[i] = 0.2 + r.Float64()
		}
		q := corr.Importance(ig)
		w := 3.0
		k := 2 + r.Intn(2)
		sel := GreedyBatch(corr, ig, q, w, k)
		fGreedy := utility(corr, ig, q, w, sel)
		_, fOpt := bruteForceBatch(corr, ig, q, w, k)
		return fGreedy >= (1-1/math.E)*fOpt-1e-9
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGreedyAvoidsRedundantPick(t *testing.T) {
	// Two heavily correlated high-gain claims and one independent
	// medium-gain claim: the batch of two should include the
	// independent one.
	corr := &Correlation{claims: []int{0, 1, 2}, m: [][]float64{
		{1, 1, 0},
		{1, 1, 0},
		{0, 0, 1},
	}}
	ig := []float64{1.0, 0.99, 0.7}
	q := corr.Importance(ig)
	sel := GreedyBatch(corr, ig, q, 1.0, 2)
	has2 := false
	for _, s := range sel {
		if s == 2 {
			has2 = true
		}
	}
	if !has2 {
		t.Fatalf("greedy ignored the non-redundant claim: %v", sel)
	}
}

func TestBatchSelectorEndToEnd(t *testing.T) {
	ctx, _ := newCtx(t, 21)
	b := &BatchSelector{W: 4, K: 5}
	batch := b.SelectBatch(ctx, 5)
	if len(batch) != 5 {
		t.Fatalf("batch size = %d", len(batch))
	}
	seen := map[int]bool{}
	for _, c := range batch {
		if ctx.State.Labeled(c) {
			t.Fatalf("batch contains labelled claim %d", c)
		}
		if seen[c] {
			t.Fatalf("duplicate claim %d in batch", c)
		}
		seen[c] = true
	}
	if b.Name() != "batch" {
		t.Fatal("name")
	}
	if got := b.Rank(ctx, 3); len(got) != 3 {
		t.Fatalf("Rank(3) = %v", got)
	}
}

func TestBruteForceBatchExhausts(t *testing.T) {
	corr := &Correlation{claims: []int{0, 1, 2}, m: [][]float64{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
	}}
	ig := []float64{0.3, 0.9, 0.5}
	q := corr.Importance(ig)
	best, f := bruteForceBatch(corr, ig, q, 5, 2)
	if len(best) != 2 {
		t.Fatalf("best = %v", best)
	}
	// With no cross terms, the two largest IG·q·w − IG² wins: claims 1,2.
	want := map[int]bool{1: true, 2: true}
	for _, b := range best {
		if !want[b] {
			t.Fatalf("best = %v, f = %v", best, f)
		}
	}
}
