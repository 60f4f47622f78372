package em

import (
	"math"

	"factcheck/internal/gibbs"
	"factcheck/internal/wire"
)

// EngineImage is the engine's decoded section of a session state image
// (DESIGN.md §10): θ, whether a full inference has run, the chain and
// Ω*. Base scores follow from θ, so they are not stored.
type EngineImage struct {
	theta   []float64
	inited  bool
	chain   gibbs.ChainImage
	samples *gibbs.SampleSet // nil before the first inference
}

// AppendImage appends the engine's section to b.
func (e *Engine) AppendImage(b []byte) []byte {
	b = wire.AppendF64s(b, e.model.Theta)
	b = wire.AppendBool(b, e.inited)
	b = e.chain.AppendImage(b)
	b = wire.AppendBool(b, e.samples != nil)
	if e.samples != nil {
		b = e.samples.AppendImage(b)
	}
	return b
}

// ReadEngineImage decodes an engine section for a corpus of nClaims
// claims and a model of dim parameters under cfg, whose budgets bound
// |Ω|. θ must be finite.
func ReadEngineImage(r *wire.Reader, nClaims, dim int, cfg Config) EngineImage {
	img := EngineImage{theta: make([]float64, dim)}
	r.F64s(img.theta)
	for _, t := range img.theta {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			r.Fail(wire.ErrValue)
		}
	}
	img.inited = r.Bool()
	img.chain = gibbs.ReadChainImage(r, nClaims)
	if r.Bool() {
		img.samples = gibbs.ReadSampleSetImage(r, nClaims, max(cfg.Samples, cfg.IncSamples, 0))
	}
	return img
}

// InstallImage puts a decoded section in place of the engine's
// transcript-dependent state, building nothing (live builds the chain's
// tables); the engine must sit over the corpus the image was decoded for.
func (e *Engine) InstallImage(img EngineImage) {
	e.model.SetTheta(img.theta)
	e.chain.InstallImage(img.chain)
	e.samples = img.samples
	e.inited = img.inited
}
