package guidance

import (
	"math"
	"testing"

	"factcheck/internal/gibbs"
)

// TestWhatIfGainSkipsZeroWeightBranch: whatIfGain, which runs only the
// branches P(c) weights by more than an exact zero, returns the bits of
// the two-branch evaluation — both branches run from the candidate's
// seed, true first — for both gain families, with P forced to 0, to 1
// and to interior values.
func TestWhatIfGainSkipsZeroWeightBranch(t *testing.T) {
	ctx, _ := newCtx(t, 21)
	w := &Worker{Chain: new(gibbs.Chain)}
	w.Chain.Adopt(ctx.Engine.Chain())
	for _, kind := range []gainKind{gainInfo, gainSource} {
		for _, c := range candidates(ctx)[:4] {
			hCur := beforeEntropy(ctx, ctx.DB.Rows(), kind, ctx.DB.ComponentOf(c))
			p0 := ctx.State.P(c)
			for _, p := range []float64{0, 1, 0.5, 0x1p-53, 1 - 0x1p-53, p0} {
				ctx.State.SetP(c, p)
				w.Chain.Reseed(int64(c))
				hPlus := hypoEntropy(ctx, ctx.DB.Rows(), kind, w, c, true)
				hMinus := hypoEntropy(ctx, ctx.DB.Rows(), kind, w, c, false)
				want := hCur - (p*hPlus + (1-p)*hMinus)
				w.Chain.Reseed(int64(c))
				if got := whatIfGain(ctx, ctx.DB.Rows(), kind, w, c, hCur); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("family %d, claim %d, P = %v: gain %v, two-branch evaluation %v", kind, c, p, got, want)
				}
			}
			ctx.State.SetP(c, p0)
		}
	}
}
