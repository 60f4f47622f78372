package stats

// WindowedHist is a rolling-window view over LogHist: observations land
// in fixed-width time slots and reads merge only the slots that fall
// inside the window ending at the read time, so a quantile reflects
// recent behaviour instead of the whole process lifetime. It exists for
// the serving SLO controller, whose decisions must follow the *current*
// answer-latency p99 — a cumulative histogram would keep a long-past
// overload breaching the SLO forever.
//
// Timestamps are caller-supplied float64 seconds on any monotone clock
// (wall seconds since boot, or a discrete-event simulation's virtual
// time), which is what lets the same controller run under both. Slots
// are recycled in place: writing into a slot whose stored time range has
// fallen out of the window resets it first, so a WindowedHist costs
// O(slots) memory regardless of uptime. Not safe for concurrent use;
// callers guard it.
type WindowedHist struct {
	slotDur float64
	slots   []LogHist
	// stamps[i] is the absolute slot number (floor(t/slotDur)) whose
	// observations slots[i] currently holds; -1 marks never-used.
	stamps []int64
}

// NewWindowedHist creates a window of windowSeconds split into slots
// equal slots (minimum 1 each; windowSeconds defaults to 10).
func NewWindowedHist(windowSeconds float64, slots int) *WindowedHist {
	if windowSeconds <= 0 {
		windowSeconds = 10
	}
	if slots < 1 {
		slots = 1
	}
	w := &WindowedHist{
		slotDur: windowSeconds / float64(slots),
		slots:   make([]LogHist, slots),
		stamps:  make([]int64, slots),
	}
	for i := range w.stamps {
		w.stamps[i] = -1
	}
	return w
}

func (w *WindowedHist) slotNumber(t float64) int64 {
	if t < 0 {
		t = 0
	}
	return int64(t / w.slotDur)
}

// Add records one observation at time t (seconds). A slot holding
// observations from an earlier rotation is reset before reuse.
func (w *WindowedHist) Add(t, x float64) {
	sn := w.slotNumber(t)
	i := int(sn % int64(len(w.slots)))
	if w.stamps[i] != sn {
		w.slots[i] = LogHist{}
		w.stamps[i] = sn
	}
	w.slots[i].Add(x)
}

// merged collects the slots alive at time t into one histogram.
func (w *WindowedHist) merged(t float64) *LogHist {
	sn := w.slotNumber(t)
	lo := sn - int64(len(w.slots)) + 1
	var h LogHist
	for i := range w.slots {
		if w.stamps[i] >= lo && w.stamps[i] <= sn {
			h.Merge(&w.slots[i])
		}
	}
	return &h
}

// Count returns the number of observations inside the window ending at t.
func (w *WindowedHist) Count(t float64) int64 {
	return w.merged(t).Count()
}

// Quantile estimates the q-th quantile over the window ending at t. The
// second return distinguishes "no observations in the window" (ok =
// false) from a genuine zero — an empty window is absence of signal, not
// a zero-latency system, and the SLO controller must treat the two
// differently (an idle server is not in breach).
func (w *WindowedHist) Quantile(t, q float64) (float64, bool) {
	h := w.merged(t)
	if h.Count() == 0 {
		return 0, false
	}
	return h.Quantile(q), true
}
