package gibbs

// Hooks for bound_test.go, which is an external test package because it
// drives a core.Session, and core imports this package.

const BoundMargin = boundMargin

var (
	RandomDB    = randomDB
	RandomModel = randomModel
)

func (ch *Chain) FastLogOdds(c int) (l, delta float64) { return ch.fastLogOdds(c) }

func (ch *Chain) Bracket(u float64, c int) (v, ok bool) { return ch.bracket(u, c) }

// Static is draw's first stage as the sweep runs it: it decides only on
// a chain whose θ_T the thresholds were set for.
func (ch *Chain) Static(u float64, c int) (v, ok bool) {
	v, ok = ch.static(u, c)
	return v, ok && ch.fresh()
}

func (ch *Chain) Frozen(c int) bool { return ch.frozen[c] }

// CloneDetached is a what-if copy of ch on its own stream: a fresh chain
// that adopted ch, reseeded by seed.
func (ch *Chain) CloneDetached(seed int64) *Chain {
	w := new(Chain)
	w.Adopt(ch)
	w.Reseed(seed)
	return w
}
