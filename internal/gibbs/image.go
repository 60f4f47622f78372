package gibbs

import (
	"math/bits"

	"factcheck/internal/stats"
	"factcheck/internal/wire"
)

// The sampler's sections of a session state image (DESIGN.md §10): what
// a chain and a sample set hold that is a function of the transcript.
// Everything derived from the corpus or from θ — the run table, the
// agreement counters, base scores, per-claim sample counts — is not
// stored: SetModel builds the tables, the words give the counts.

// ChainImage is a decoded chain section: assignment, frozen flags and
// the position of the chain's own RNG stream.
type ChainImage struct {
	x, frozen []bool
	rng       stats.RNG
}

// AppendImage appends the chain's section to b.
func (ch *Chain) AppendImage(b []byte) []byte {
	b = wire.AppendBools(b, ch.x)
	b = wire.AppendBools(b, ch.frozen)
	return ch.rng.AppendImage(b)
}

// ReadChainImage decodes a chain section over n claims (n comes from
// the corpus).
func ReadChainImage(r *wire.Reader, n int) ChainImage {
	img := ChainImage{x: make([]bool, n), frozen: make([]bool, n)}
	r.Bools(img.x)
	r.Bools(img.frozen)
	img.rng.ReadImage(r)
	return img
}

// InstallImage overwrites the chain's assignment, frozen flags and RNG
// position with a decoded section and drops the tables (Release), which
// the next SetModel builds over the new assignment. The image must have
// been decoded for this chain's claim count.
func (ch *Chain) InstallImage(img ChainImage) {
	if len(img.x) != len(ch.x) {
		panic("gibbs: chain image decoded for another corpus size")
	}
	copy(ch.x, img.x)
	copy(ch.frozen, img.frozen)
	*ch.rng = img.rng
	ch.Release()
}

// AppendImage appends the sample set's section to b: its shape, then
// every sample's words. Counts are a function of the words.
func (ss *SampleSet) AppendImage(b []byte) []byte {
	b = wire.AppendInt(b, uint64(ss.nClaims))
	b = wire.AppendInt(b, uint64(len(ss.samples)))
	for _, s := range ss.samples {
		for _, w := range s {
			b = wire.AppendU64(b, w)
		}
	}
	return b
}

// ReadSampleSetImage decodes a sample set that must cover exactly
// nClaims claims with at most maxSamples samples (both corpus- and
// configuration-derived, so the allocation is bounded before a byte of
// Ω is read). Bits past the last claim must be clear: Grow relies on
// new claims starting at zero.
func ReadSampleSetImage(r *wire.Reader, nClaims, maxSamples int) *SampleSet {
	if r.Int(nClaims) != nClaims {
		r.Fail(wire.ErrValue)
	}
	samples := r.Int(maxSamples)
	if r.Err() != nil {
		return nil
	}
	ss := newDenseSampleSet(nClaims, samples)
	for _, s := range ss.samples {
		r.U64s(s)
		if tail := nClaims % 64; tail != 0 && s[len(s)-1]>>tail != 0 {
			r.Fail(wire.ErrValue)
		}
		if r.Err() != nil {
			return nil
		}
		for w, word := range s {
			for ; word != 0; word &= word - 1 {
				ss.counts[w*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	return ss
}
