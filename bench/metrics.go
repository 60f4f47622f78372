package main

import (
	"math"
	"slices"
	"strings"
)

// Metric is one reported number. N is the sample count behind a
// percentile or median (0 for counts and ratios).
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
}

// decl declares a metric of the ledger: what it is called, where it is
// reported, and how -compare judges it.
type decl struct {
	name, unit string
	// higher marks metrics where a larger value is better.
	higher bool
	// bound is how far the metric may worsen before -compare calls it
	// worse: a share of the base median, or an absolute amount when abs
	// is set. Per-layer metrics have none (0): they explain, they do not
	// gate.
	bound float64
	abs   bool
	// exact marks count-type metrics: pure functions of (workload, seed,
	// size) that must match exactly between two runs.
	exact bool
	// on lists the workloads the metric is reported on; nil means all.
	on []string
	// ledgerOnly keeps a metric reported on every workload out of the
	// BENCHMARK.json contract.
	ledgerOnly bool
}

// driver reports whether the metric is part of the BENCHMARK.json
// contract, which wants every listed metric on every workload.
func (d decl) driver() bool { return d.on == nil && !d.ledgerOnly }

var (
	guided    = []string{"guided-connected", "guided-incremental"}
	streaming = []string{"streaming-ingest"}
	fleet     = []string{"fleet-churn"}
)

// endToEnd are the metrics a user of the served system sees, measured
// with the benchmark's own tracing off. The timing bounds are what ten
// runs on the 2-core reference box can resolve: its speed wanders by
// ±10% over minutes (README.md, "Run-to-run spread"), so a tighter
// bound would read noise as regression; a smaller effect is claimed
// from alternating paired runs, not from this table.
var endToEnd = []decl{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "answers_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "answer_p50_ms", unit: "ms", bound: 0.25},
	{name: "answer_p99_ms", unit: "ms", bound: 0.25},
	// Outside the contract: the guided workloads open 8–16 sessions a
	// run, too few for a median to hold a bound across noisy runs.
	{name: "open_p50_ms", unit: "ms", bound: 0.25, ledgerOnly: true},
	{name: "live_heap_mb", unit: "MB", bound: 0.10},
	{name: "revive_p50_ms", unit: "ms", bound: 0.25, on: fleet},
	{name: "ingest_to_ranked_p50_ms", unit: "ms", bound: 0.25, on: streaming},
	{name: "effort_to_p90", unit: "fraction", bound: 0.01, abs: true, exact: true, on: guided},
	// The contract wants end-to-end metrics that never read 0, and
	// carries failures in its own attempted/failed counts.
	{name: "failed_share", unit: "fraction", abs: true, ledgerOnly: true},
}

// perLayer are the metrics of single layers (this repo's packages),
// from the traced pass: ladder and kernel rungs (L), the persist.Store
// and handler wrappers (W), and Manager.Metrics scrapes diffed across
// the measured phase (S).
var perLayer = []decl{
	{name: "gibbs.sweep_us", unit: "us"},
	{name: "gibbs.sweep_allocs", unit: "count"},
	{name: "em.infer_full_ms", unit: "ms"},
	{name: "em.infer_component_ms", unit: "ms"},
	{name: "em.infer_component_allocs", unit: "count"},
	{name: "em.hypothetical_us", unit: "us"},
	{name: "guidance.rank_cold_ms", unit: "ms"},
	{name: "guidance.rank_incremental_ms", unit: "ms"},
	{name: "guidance.rank_allocs", unit: "count"},
	{name: "guidance.gain_cache_hit_ratio", unit: "ratio", higher: true, exact: true},
	{name: "guidance.gain_cache_misses_per_answer", unit: "count", exact: true},
	{name: "core.open_ms", unit: "ms"},
	{name: "core.step_ms", unit: "ms"},
	{name: "core.ingest_ms", unit: "ms"},
	{name: "core.restore_ms", unit: "ms"},
	{name: "synth.build_corpus_ms", unit: "ms"},
	{name: "persist.append_us", unit: "us"},
	{name: "persist.appends", unit: "count", exact: true},
	{name: "persist.checkpoint_ms", unit: "ms"},
	{name: "persist.checkpoints", unit: "count", exact: true},
	{name: "persist.load_ms", unit: "ms"},
	{name: "persist.loads", unit: "count", exact: true},
	{name: "persist.bytes_per_answer", unit: "B", exact: true},
	{name: "persist.busy_share", unit: "ratio"},
	{name: "service.manager_overhead_ms", unit: "ms"},
	{name: "service.wal_overhead_ms", unit: "ms"},
	{name: "service.http_overhead_ms", unit: "ms"},
	{name: "service.stage_answer_ms", unit: "ms"},
	{name: "service.stage_rescore_ms", unit: "ms"},
	{name: "service.stage_resample_ms", unit: "ms"},
	{name: "service.stage_wal_append_ms", unit: "ms"},
	{name: "service.stage_lane_acquire_ms", unit: "ms"},
	{name: "service.stage_ingest_apply_ms", unit: "ms", on: streaming},
	{name: "service.unattributed_ms", unit: "ms"},
	{name: "service.lane_waits", unit: "count"},
	{name: "service.mailbox_queued_share", unit: "ratio", on: streaming},
	{name: "service.handler_self_ms", unit: "ms"},
	{name: "service.client_self_ms", unit: "ms"},
	{name: "service.evict_ms_per_session", unit: "ms", on: fleet},
	{name: "router.hop_ms", unit: "ms", on: fleet},
	{name: "router.self_ms", unit: "ms", on: fleet},
	{name: "router.retries", unit: "count", on: fleet},
	{name: "router.migrate_ms_per_session", unit: "ms", on: fleet},
	// Checks on the ledger itself, not layers of the program: how much
	// of client.answer the layer self times explain, and what the traced
	// pass costs over the untraced one (known only when both ran).
	{name: "bench.self_time_closure_pct", unit: "%", ledgerOnly: true},
	{name: "bench.trace_overhead_pct", unit: "%", ledgerOnly: true},
}

// declared returns every metric of the ledger, end-to-end first.
func declared() []decl { return slices.Concat(endToEnd, perLayer) }

// percentile is the nearest-rank q-quantile of an ascending slice (0
// for an empty one, which only a failed pass produces).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the mean of the two middle values for an even count.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEndMetrics turns an untraced pass into the end-to-end metrics.
func endToEndMetrics(w spec, p *pass) []Metric {
	answers := slices.Sorted(slices.Values(p.answer))
	n := len(answers)
	out := []Metric{
		{Name: "setup_s", Unit: "s", Value: median(p.setups), N: len(p.setups)},
		{Name: "answers_per_s", Unit: "1/s", Value: float64(n) / p.wall, N: n},
		{Name: "answer_p50_ms", Unit: "ms", Value: percentile(answers, 0.50), N: n},
		{Name: "answer_p99_ms", Unit: "ms", Value: percentile(answers, 0.99), N: n},
		{Name: "open_p50_ms", Unit: "ms", Value: median(p.open), N: len(p.open)},
		{Name: "live_heap_mb", Unit: "MB", Value: p.heapMB, N: p.heapSessions},
	}
	if w.fleet {
		out = append(out, Metric{Name: "revive_p50_ms", Unit: "ms", Value: median(p.revive), N: len(p.revive)})
	}
	if w.rounds > 0 {
		out = append(out, Metric{Name: "ingest_to_ranked_p50_ms", Unit: "ms", Value: median(p.ingest), N: len(p.ingest)})
	}
	if !w.fleet && w.rounds == 0 {
		sum, reached := 0.0, 0
		for _, s := range p.sessions {
			if s.effortP90 >= 0 {
				sum += s.effortP90
				reached++
			}
		}
		out = append(out, Metric{Name: "effort_to_p90", Unit: "fraction", Value: sum / float64(max(reached, 1)), N: reached})
	}
	return append(out, Metric{Name: "failed_share", Unit: "fraction", Value: float64(p.failed) / float64(max(p.attempted, 1)), N: p.attempted})
}

// perLayerMetrics turns a traced pass into the per-layer metrics,
// after those of the ladder and kernel rungs, and into the split of the
// mean client.answer span into layer self times (ms per answer).
func perLayerMetrics(w spec, p *pass, rungs []Metric) (out, selfTime []Metric) {
	out = rungs
	add := func(name, unit string, v float64, n int) {
		out = append(out, Metric{Name: name, Unit: unit, Value: v, N: n})
	}
	answers := float64(max(len(p.answer), 1))

	// (W) the persist.Store wrapper.
	calls := map[string][]float64{}
	bytes, busy := 0, 0.0
	for _, s := range p.spans {
		if call, ok := strings.CutPrefix(s.Name, "persist."); ok {
			calls[call] = append(calls[call], s.seconds())
			bytes += s.Bytes
			busy += s.seconds()
		}
	}
	add("persist.append_us", "us", median(calls["append"])*1e6, len(calls["append"]))
	add("persist.appends", "count", float64(len(calls["append"])), 0)
	add("persist.checkpoint_ms", "ms", median(calls["checkpoint"])*1e3, len(calls["checkpoint"]))
	add("persist.checkpoints", "count", float64(len(calls["checkpoint"])), 0)
	add("persist.load_ms", "ms", median(calls["load"])*1e3, len(calls["load"]))
	add("persist.loads", "count", float64(len(calls["load"])), 0)
	add("persist.bytes_per_answer", "B", float64(bytes)/answers, 0)
	add("persist.busy_share", "ratio", busy/(p.wall*clients), 0)

	// (S) the scraped stage histograms and counters.
	// The answer stages are means per answer. A lane is acquired by
	// every worker-holding request (answers and rankings alike) and a
	// delta applied once per delta, so those two are means per span.
	stage := func(name string) float64 { return p.server.stageSeconds[name] / answers * 1e3 }
	perSpan := func(name string) (float64, int) {
		n := p.server.stageCount[name]
		return p.server.stageSeconds[name] / float64(max(n, 1)) * 1e3, int(n)
	}
	lane, lanes := perSpan("lane_acquire")
	add("service.stage_answer_ms", "ms", stage("answer"), 0)
	add("service.stage_rescore_ms", "ms", stage("rescore"), 0)
	add("service.stage_resample_ms", "ms", stage("resample"), 0)
	add("service.stage_wal_append_ms", "ms", stage("wal_append"), 0)
	add("service.stage_lane_acquire_ms", "ms", lane, lanes)
	if w.rounds > 0 {
		apply, applied := perSpan("ingest_apply")
		add("service.stage_ingest_apply_ms", "ms", apply, applied)
		add("service.mailbox_queued_share", "ratio", float64(p.queued)/float64(max(p.deltas, 1)), 0)
	}
	add("service.unattributed_ms", "ms",
		stage("answer")-stage("rescore")-stage("resample")-stage("wal_append")-lane, 0)
	add("service.lane_waits", "count", float64(p.server.laneWaits), 0)
	lookups := float64(p.server.gainHits + p.server.gainMisses)
	add("guidance.gain_cache_hit_ratio", "ratio", float64(p.server.gainHits)/max(lookups, 1), 0)
	add("guidance.gain_cache_misses_per_answer", "count", float64(p.server.gainMisses)/answers, 0)

	// (W) the handler wrappers: self times along client.answer.
	layers := answerSelfTimes(p.spans)
	handler := layers.server - p.server.stageSeconds["answer"]
	add("service.client_self_ms", "ms", layers.clientSelf/answers*1e3, 0)
	add("service.handler_self_ms", "ms", handler/answers*1e3, 0)
	engine := p.server.stageSeconds["answer"] - layers.persist
	closure := (layers.clientSelf + layers.routerSelf + handler + engine + layers.persist) / layers.client * 100
	add("bench.self_time_closure_pct", "%", closure, 0)
	selfTime = []Metric{
		{Name: "client", Unit: "ms", Value: layers.clientSelf / answers * 1e3},
		{Name: "router", Unit: "ms", Value: layers.routerSelf / answers * 1e3},
		{Name: "handler", Unit: "ms", Value: handler / answers * 1e3},
		{Name: "manager+core", Unit: "ms", Value: engine / answers * 1e3},
		{Name: "persist", Unit: "ms", Value: layers.persist / answers * 1e3},
		{Name: "client.answer", Unit: "ms", Value: layers.client / answers * 1e3},
	}
	if w.fleet {
		add("service.evict_ms_per_session", "ms", p.evictSeconds/float64(w.sessions)*1e3, w.sessions)
		add("router.self_ms", "ms", layers.routerSelf/answers*1e3, 0)
		add("router.retries", "count", float64(p.retries), 0)
		add("router.migrate_ms_per_session", "ms", p.migrateSeconds/float64(max(p.migrated, 1))*1e3, p.migrated)
	}
	return out, selfTime
}

// answerLayers are span totals (s) over every request whose client
// span is client.answer.
type answerLayers struct {
	client     float64 // client.answer durations
	clientSelf float64 // … minus the handler span under each
	routerSelf float64 // router.handle minus the server.handle under it
	server     float64 // server.handle durations
	persist    float64 // persist.* durations under those
}

func answerSelfTimes(spans []span) answerLayers {
	self := selfSeconds(spans)
	var l answerLayers
	// root walks up to the span's root; spans are few levels deep.
	root := func(i int) int {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return i
	}
	for i, s := range spans {
		if spans[root(i)].Name != "client.answer" {
			continue
		}
		switch {
		case s.Name == "client.answer":
			l.client += s.seconds()
			l.clientSelf += self[i]
		case s.Name == "router.handle":
			l.routerSelf += self[i]
		case s.Name == "server.handle":
			l.server += s.seconds()
		case strings.HasPrefix(s.Name, "persist."):
			l.persist += s.seconds()
		}
	}
	return l
}
