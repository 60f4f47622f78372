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

func (ch *Chain) Static(u float64, c int) (v, ok bool) { return ch.static(u, c) }

func (ch *Chain) Frozen(c int) bool { return ch.frozen[c] }
