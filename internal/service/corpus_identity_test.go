package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// corpusDigest hashes everything a served session can observe of a
// corpus, read only through what every storage layout must offer: the
// per-row feature accessors, the clique list, the truth, the posting
// order and the size summary. Feature values enter as bit patterns, so
// a layout change that moves one ulp moves the digest.
func corpusDigest(c *synth.Corpus) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	floats := func(fs []float64) {
		u64(uint64(len(fs)))
		for _, f := range fs {
			u64(math.Float64bits(f))
		}
	}
	db, rows := c.DB, c.DB.Rows()
	u64(uint64(len(db.Sources)))
	for s := range db.Sources {
		floats(rows.SourceFeatures(s))
	}
	u64(uint64(len(db.Documents)))
	for d := range db.Documents {
		floats(rows.DocFeatures(d))
	}
	u64(uint64(len(rows.Cliques)))
	for _, q := range rows.Cliques {
		u64(uint64(q.Claim))
		u64(uint64(q.Doc))
		u64(uint64(q.Source))
		u64(uint64(q.Stance))
	}
	u64(uint64(len(c.Truth)))
	for _, v := range c.Truth {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(uint64(len(c.ClaimOrder)))
	for _, v := range c.ClaimOrder {
		u64(uint64(v))
	}
	fmt.Fprintf(h, "%+v", db.Stats())
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestCorpusIdentity pins the corpora the four benchmark workloads open
// (the open requests of bench/workloads.go, two seeds each) and the same
// corpora after one ingested delta, as committed digests. The digests
// were generated before the corpus storage layout was touched; a change
// to factdb's or synth's layout must leave them alone.
func TestCorpusIdentity(t *testing.T) {
	cases := []struct {
		name        string
		req         OpenRequest
		base, delta [2]string // per seed: as built, and after one delta
	}{
		{"guided-connected", OpenRequest{Profile: "wiki"},
			[2]string{"0f79057c0bef81128f496249", "48866f4ac72d88aebbf96c93"},
			[2]string{"66f20f0c9cf8c8e44c0dd81d", "8cf26c060a4c7871bc6acc69"}},
		{"guided-incremental", OpenRequest{Profile: "wiki", Scale: 2, Communities: 12, FullSweepEvery: 16},
			[2]string{"3959db1e15e24a77c021aa3f", "f6e1c5204dcfa387d605337b"},
			[2]string{"7f63f1b277e314d14a137877", "e5adf96317f6f1e840df8b26"}},
		{"streaming-ingest", OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16},
			[2]string{"c0529b39541b088f9ad9d655", "17fd02d041028c6f67ed8134"},
			[2]string{"616ed4d0cd751d4b2bb18a37", "09fb72cb83cd32daad0c915c"}},
		{"fleet-churn", OpenRequest{Profile: "wiki", Scale: 0.5, Communities: 4, Strategy: "uncertainty"},
			[2]string{"d284c890ccb8a4c74788d0f9", "19e894234a5a9a4dc71db679"},
			[2]string{"8dd1e715243fe4428bbe6252", "689ca9d35673be37a8f872c9"}},
	}
	seeds := [2]int64{7, 1 << 40}
	for _, tc := range cases {
		for i, seed := range seeds {
			req := tc.req
			req.Seed = seed
			c, err := BuildCorpus(req)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if got := corpusDigest(c); got != tc.base[i] {
				t.Errorf("%s seed %d: corpus digest %s, want %s", tc.name, seed, got, tc.base[i])
			}
			// One delta at the served shape, the way the streaming
			// workload derives it.
			shape, err := synth.ByName(req.Profile)
			if err != nil {
				t.Fatal(err)
			}
			d := synth.GenerateDelta(shape.At(c.DB.Stats()), 0.02, stats.StreamSeed(uint64(seed), 0))
			if _, err := c.DB.Extend(d); err != nil {
				t.Fatalf("%s seed %d: extend: %v", tc.name, seed, err)
			}
			c.Truth = append(c.Truth, d.Truth...)
			if got := corpusDigest(c); got != tc.delta[i] {
				t.Errorf("%s seed %d: digest after delta %s, want %s", tc.name, seed, got, tc.delta[i])
			}
		}
	}
}

// BenchmarkBuildCorpus times generating the corpora of the four open
// requests TestCorpusIdentity pins — the build every open, revive,
// import and migration of that workload pays.
func BenchmarkBuildCorpus(b *testing.B) {
	for _, bc := range []struct {
		name string
		req  OpenRequest
	}{
		{"guided-connected", OpenRequest{Profile: "wiki", Seed: 7}},
		{"guided-incremental", OpenRequest{Profile: "wiki", Scale: 2, Communities: 12, FullSweepEvery: 16, Seed: 7}},
		{"streaming-ingest", OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16, Seed: 7}},
		{"fleet-churn", fleetChurnOpen(7)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildCorpus(bc.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateDelta times generating one corpus delta at the
// streaming-ingest workload's shape, the way that workload derives it:
// each delta builds its own Zipf laws (two of them at the base corpus's
// size) for a few dozen draws.
func BenchmarkGenerateDelta(b *testing.B) {
	req := OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16, Seed: 7}
	c, err := BuildCorpus(req)
	if err != nil {
		b.Fatal(err)
	}
	shape, err := synth.ByName(req.Profile)
	if err != nil {
		b.Fatal(err)
	}
	shape = shape.At(c.DB.Stats())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synth.GenerateDelta(shape, 0.02, stats.StreamSeed(uint64(req.Seed), uint64(i)))
	}
}
