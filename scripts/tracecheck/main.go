// tracecheck prints the oracle-answered selection trace the in-process
// library path produces for a served session's opening configuration.
// serve_smoke.sh drives the same configuration over HTTP and asserts the
// two claim sequences are identical — the trace-fidelity guarantee of
// DESIGN.md §8 extended to the incremental dirty-component re-ranking
// path (§12) and to live corpus ingestion (§15), checked end to end
// through a real server process.
//
// With -ingest-after N (and -ingest-frac/-ingest-seed), the library
// session ingests a deterministic synthetic delta after its N-th
// answer, exactly where the smoke script streams the same delta over
// HTTP. -emit-delta prints that delta as an IngestRequest JSON body
// instead of tracing, so the script POSTs byte-for-byte the delta the
// library path folds in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"factcheck/internal/core"
	"factcheck/internal/service"
	"factcheck/internal/sim"
	"factcheck/internal/synth"
)

func main() {
	profile := flag.String("profile", "wiki", "corpus profile name")
	scale := flag.Float64("scale", 1, "profile scale")
	seed := flag.Int64("seed", 42, "session seed")
	pool := flag.Int("pool", 0, "candidate pool bound")
	communities := flag.Int("communities", 0, "multi-community corpus parts")
	steps := flag.Int("steps", 8, "oracle answers to trace")
	ingestAfter := flag.Int("ingest-after", -1, "ingest a delta after this many answers (-1 = never)")
	ingestFrac := flag.Float64("ingest-frac", 0.08, "delta size as a fraction of the corpus")
	ingestSeed := flag.Int64("ingest-seed", 777, "delta generation seed")
	emitDelta := flag.Bool("emit-delta", false, "print the delta as an IngestRequest JSON body and exit")
	flag.Parse()

	req := service.OpenRequest{
		Profile:       *profile,
		Scale:         *scale,
		Seed:          *seed,
		CandidatePool: *pool,
		Communities:   *communities,
	}
	opts, err := service.BuildOptions(req)
	if err != nil {
		fatal(err)
	}
	corpus, err := service.BuildCorpus(req)
	if err != nil {
		fatal(err)
	}

	// The delta is generated from the base profile's statistical knobs
	// at the served corpus's actual shape (community partitioning and
	// scale floors can round sizes away from the nominal profile).
	prof, err := synth.ByName(*profile)
	if err != nil {
		fatal(err)
	}
	delta := synth.GenerateDelta(prof.At(corpus.DB.Stats()), *ingestFrac, *ingestSeed)
	if *emitDelta {
		if err := json.NewEncoder(os.Stdout).Encode(service.IngestRequest{Delta: delta}); err != nil {
			fatal(err)
		}
		return
	}

	s, err := core.OpenSession(corpus.DB, opts)
	if err != nil {
		fatal(err)
	}
	// The oracle reads its Truth field at call time, so the delta's
	// truth appended there answers for the claims it brings.
	oracle := &sim.Oracle{Truth: corpus.Truth}
	for i := 0; i < *steps; i++ {
		if i == *ingestAfter {
			if _, err := s.Ingest(delta); err != nil {
				fatal(err)
			}
			oracle.Truth = append(oracle.Truth, delta.Truth...)
		}
		if s.Step(oracle) {
			break
		}
	}
	printed := 0
	for _, e := range s.Snapshot().Elicitations {
		if e.Ingest != nil {
			continue // arrival records carry no asked claim
		}
		if printed > 0 {
			fmt.Print(" ")
		}
		fmt.Print(e.Claim)
		printed++
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
