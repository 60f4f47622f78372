package main

import (
	"fmt"
	"math"

	"factcheck/internal/service"
	"factcheck/internal/stats"
)

// spec is one workload: the session configuration every session opens
// with (seed filled per session) and the script each session runs.
// Session counts are stated for referenceSeconds of measured time on
// the reference box and scale linearly with -seconds, so a run's
// operation counts are a pure function of (workload, -seconds) and
// repeat exactly.
type spec struct {
	name  string
	short string // session-id prefix
	why   string
	open  service.OpenRequest
	// sessions is the session count at referenceSeconds; floor is the
	// count a run never goes below, so that even a short run collects
	// the 1 000 answers its p99 needs.
	sessions, floor int
	// answers caps the answers per session (per wave on the fleet
	// workload); 0 runs the session until the server reports Done.
	answers int
	// warm/rounds/perRound script the streaming workload: warm answers,
	// then rounds of perRound answers followed by one corpus delta of
	// deltaFrac the corpus size and the GET next that ranks over it.
	warm, rounds, perRound int
	// fleet routes the sessions through the shard router over two
	// backends on one shared store and runs them as two waves around a
	// spill of every session.
	fleet bool
	// ladder is how many answers of session #0 the traced pass replays
	// at every ladder rung.
	ladder int
	// migrate is how many idle sessions the traced fleet pass drains
	// off one backend to price a migration.
	migrate int
}

const (
	referenceSeconds = 30
	deltaFrac        = 0.02
	clients          = 2
	// warmupAnswers is the length of the unmeasured warm-up session
	// that ends every stack set-up.
	warmupAnswers = 8
	// kernelAt is the answer count after which the kernel rungs time
	// the public kernels on session #0's corpus.
	kernelAt = 32
)

// workloads are the four served workloads, in workload-index order
// (the index feeds the per-session seeds). Sizes come from a probe of
// the seed code on the 2-core reference box.
var workloads = []spec{
	{
		name: "guided-connected", short: "gc",
		why:      "one connected component: the gain cache cannot help, >90% of time is what-if Gibbs sweeps; kernel work must show here, serving-layer work must not",
		open:     service.OpenRequest{Profile: "wiki"},
		sessions: 10, floor: 8, ladder: 24,
	},
	{
		name: "guided-incremental", short: "gi",
		why:      "12 components, full sweep every 16th answer: dirty-component re-rank with a hot gain cache; p50 is the incremental path, p99 the full EM sweep",
		open:     service.OpenRequest{Profile: "wiki", Scale: 2, Communities: 12, FullSweepEvery: 16},
		sessions: 24, floor: 4, ladder: 96,
	},
	{
		name: "streaming-ingest", short: "si",
		why:      "corpus deltas between answers: component merges, gain-cache invalidation, chain/sample growth and fat WAL records beside the answer path",
		open:     service.OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16},
		sessions: 30, floor: 14, warm: 17, rounds: 30, perRound: 2, ladder: 32,
	},
	{
		name: "fleet-churn", short: "fc",
		why:      "hundreds of tiny uncertainty-ranked sessions through the router, spilled and revived: lifecycle, WAL, HTTP and proxy overhead with <1% what-if scoring",
		open:     service.OpenRequest{Profile: "wiki", Scale: 0.5, Communities: 4, Strategy: "uncertainty"},
		sessions: 800, floor: 64, answers: 8, fleet: true, ladder: 96, migrate: 50,
	},
}

func workloadByName(name string) (int, spec, bool) {
	for i, w := range workloads {
		if w.name == name {
			return i, w, true
		}
	}
	return 0, spec{}, false
}

// sized returns the spec at the run's size. seconds scales the session
// count (always a multiple of the client count, so both clients run
// the same number of sessions). quick is the test size: about 1/20 of
// the operations on quarter-scale corpora — the numbers mean nothing,
// the code paths and the determinism are the same.
func (w spec) sized(seconds float64, quick bool) spec {
	n := max(int(math.Ceil(float64(w.sessions)*seconds/referenceSeconds)), w.floor)
	if quick {
		n = min(w.sessions/20, 16)
		scale := w.open.Scale
		if scale == 0 {
			scale = 1
		}
		if !w.fleet {
			w.open.Scale = scale / 4
		}
		w.warm = min(w.warm, 5)
		w.rounds = min(w.rounds, 4)
		w.ladder = min(w.ladder, 12)
		w.migrate = min(w.migrate, 6)
	}
	n += n % clients
	w.sessions = max(n, clients)
	return w
}

// sessionSeed derives session i's seed from the run seed and the
// workload index; i = -1 is the warm-up session. Seeds are kept to 52
// bits: the router re-encodes the open request through a float64, so a
// larger seed would reach the backend rounded (README.md, findings).
func sessionSeed(seed int64, workload, i int) int64 {
	s := stats.StreamSeed(uint64(stats.StreamSeed(uint64(seed), uint64(workload))), uint64(i+1))
	return int64(uint64(s) >> 12)
}

func (w spec) sessionID(i int) string {
	if i < 0 {
		return w.short + "-warm"
	}
	return fmt.Sprintf("%s-%04d", w.short, i)
}

func (w spec) request(seed int64, workload, i int) service.OpenRequest {
	req := w.open
	req.Seed = sessionSeed(seed, workload, i)
	return req
}
