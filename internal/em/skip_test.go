package em

import (
	"bytes"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/stats"
	"factcheck/internal/wire"
)

// nextWord is the word ch's stream draws next, read off the chain's
// image, whose last 16 bytes are the stream's position.
func nextWord(ch *gibbs.Chain) uint64 {
	img := ch.AppendImage(nil)
	var rng stats.RNG
	rng.ReadImage(wire.NewReader(img[len(img)-16:]))
	return rng.Uint64()
}

// scatteredDB builds a random database of several components: each
// claim cites one or two of up to n + 2 sources, so some sources tie
// claims together and some claims keep a source to themselves.
func scatteredDB(r *stats.RNG) *factdb.DB {
	n := 1 + r.Intn(10)
	nSrc := 1 + r.Intn(n+2)
	db := &factdb.DB{NumClaims: n}
	for s := 0; s < nSrc; s++ {
		db.AddSource([]float64{r.NormFloat64()})
	}
	for c := 0; c < n; c++ {
		for k := 1 + r.Intn(2); k > 0; k-- {
			st := factdb.Support
			if r.Bernoulli(0.3) {
				st = factdb.Refute
			}
			db.AddDocument(r.Intn(nSrc), []float64{r.NormFloat64()}, factdb.ClaimRef{Claim: c, Stance: st})
		}
	}
	if err := db.Finalize(); err != nil {
		panic(err)
	}
	return db
}

// TestSkipHypotheticalMatchesRun: SkipHypothetical leaves a worker chain
// where HypotheticalInto leaves it — the same image (assignment, frozen
// flags, stream position) and the same next word — for either clamp,
// on random components under random label masks, single-member
// components included, and with HypoSamples ≤ 0, where neither draws.
func TestSkipHypotheticalMatchesRun(t *testing.T) {
	r := stats.NewRNG(20261016)
	singles, empty := 0, 0
	for round := 0; round < 300; round++ {
		db := scatteredDB(r)
		cfg := DefaultConfig()
		cfg.BurnIn, cfg.Samples, cfg.EMIters = 4, 8, 1
		cfg.HypoBurn, cfg.HypoSamples = r.Intn(4)-1, r.Intn(5)-1
		e := NewEngine(db, cfg, int64(round))
		state := factdb.NewState(db.NumClaims)
		for c := 0; c < db.NumClaims; c++ {
			if r.Bernoulli(0.3) {
				state.SetLabel(c, r.Bernoulli(0.5))
			}
		}
		e.InferFull(state)
		ws := workers(e, 2)
		run, skip := ws[0], ws[1]
		c := r.Intn(db.NumClaims)
		if len(db.ComponentMembers(db.ComponentOf(c))) == 1 {
			singles++
		}
		if cfg.HypoSamples <= 0 {
			empty++
		}
		seed := int64(r.Uint64())
		run.Reseed(seed)
		skip.Reseed(seed)
		e.HypotheticalInto(nil, run, c, r.Bernoulli(0.5))
		e.SkipHypothetical(skip, c)
		if !bytes.Equal(run.AppendImage(nil), skip.AppendImage(nil)) {
			t.Fatalf("round %d: claim %d (burn %d, samples %d): chain images differ after the run and the skip",
				round, c, cfg.HypoBurn, cfg.HypoSamples)
		}
		if a, b := nextWord(run), nextWord(skip); a != b {
			t.Fatalf("round %d: claim %d (burn %d, samples %d): next word %#x after the run, %#x after the skip",
				round, c, cfg.HypoBurn, cfg.HypoSamples, a, b)
		}
	}
	if singles == 0 || empty == 0 {
		t.Fatalf("%d single-member and %d sample-less rounds; the generator must produce both", singles, empty)
	}
}
