package service

import (
	"net/http"
	"sort"

	"factcheck/internal/obs"
)

// PromText renders a Metrics snapshot as Prometheus text exposition
// (version 0.0.4): the bespoke JSON blob's counters and gauges as
// factcheck_* series, the answer-latency and per-stage LogHist
// buckets as native histograms with cumulative le bounds, and the SLO
// controller's rung as a 0/1/2 gauge. The same renderer serves one
// backend's /metrics?format=prometheus and the router's
// fleet-aggregated scrape (Metrics is the merge-closed shape both
// produce). The snapshot must have been assembled with buckets
// (Metrics(true)) for the histogram series to carry samples.
func PromText(m Metrics) []byte {
	var e obs.Expo
	var base obs.Labels
	if m.BackendID != "" {
		base = obs.Labels{{"backend", m.BackendID}}
	}

	e.Gauge("factcheck_sessions", "Live sessions on this backend (or summed across the fleet).", base, float64(m.Sessions))
	e.Gauge("factcheck_sessions_spilled", "Sessions spilled to the snapshot store by idle eviction.", base, float64(m.Spilled))
	e.Gauge("factcheck_workers_total", "Worker lanes in the shared inference budget.", base, float64(m.WorkersTotal))
	e.Gauge("factcheck_workers_granted", "Worker lanes currently granted to requests.", base, float64(m.WorkersGranted))
	e.Counter("factcheck_worker_lane_waits_total", "Requests that arrived to a saturated worker budget (the SLO controller's contention signal).", base, float64(m.LaneWaits))
	e.Gauge("factcheck_mailbox_queued", "Corpus deltas queued in live sessions' ingestion mailboxes.", base, float64(m.MailboxQueued))
	e.Counter("factcheck_sessions_opened_total", "Sessions opened or restored since boot.", base, float64(m.SessionsOpened))
	e.Counter("factcheck_answers_served_total", "Successfully answered validation requests since boot.", base, float64(m.AnswersServed))

	e.Counter("factcheck_gain_cache_hits_total", "Guidance gain-cache hits across sessions.", base, float64(m.GainCacheHits))
	e.Counter("factcheck_gain_cache_misses_total", "Guidance gain-cache misses across sessions.", base, float64(m.GainCacheMisses))
	if lookups := m.GainCacheHits + m.GainCacheMisses; lookups > 0 {
		e.Gauge("factcheck_gain_cache_hit_ratio", "Fraction of gain-cache lookups served from cache.", base, float64(m.GainCacheHits)/float64(lookups))
	}

	e.Counter("factcheck_restores_image_total", "Sessions rebuilt from a verified state image (revive, import, restore).", base, float64(m.RestoresImage))
	reasons := make([]string, 0, len(m.RestoresReplay))
	for reason := range m.RestoresReplay {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		e.Counter("factcheck_restores_replay_total", "Sessions rebuilt by replaying their whole transcript, by the reason no state image was used (none: the record carried no image).", base.With("reason", reason), float64(m.RestoresReplay[reason]))
	}
	e.Counter("factcheck_image_bytes_written_total", "State-image bytes written into checkpoints.", base, float64(m.ImageBytesWritten))
	e.Counter("factcheck_table_builds_total", "Sampler tables the sessions built: at an open, revival or growth, and when a request finds its session parked.", base, float64(m.TableBuilds))

	if c := m.Controller; c != nil {
		e.Gauge("factcheck_slo_rung", "Overload controller rung: 0 normal, 1 degraded, 2 shedding (fleet scrapes report the worst member).", base, float64(ParseSLOMode(c.Mode)))
		e.Gauge("factcheck_slo_target_seconds", "The controller's answer-latency p99 objective.", base, c.SLOSeconds)
		e.Gauge("factcheck_slo_window_p99_seconds", "Windowed answer-latency p99 the controller last evaluated.", base, c.WindowP99)
		e.Counter("factcheck_slo_breaches_total", "Controller evaluations whose windowed p99 breached the SLO.", base, float64(c.Breaches))
		e.Counter("factcheck_sheds_total", "Requests refused by admission control (shedding rung or full mailbox).", base, float64(c.Sheds))
		e.Counter("factcheck_degraded_answers_total", "Answers served on the degraded (uncertainty-ranking) rung.", base, float64(c.DegradedAnswers))
	}

	e.Histogram("factcheck_answer_latency_seconds", "Whole-path answer latency (lock wait, inference, persistence).", base, m.AnswerLatencyBuckets, m.AnswerLatency)
	e.HistogramMap("factcheck_stage_latency_seconds", "Stage latency: the answer path (lane_acquire, ingest_apply, resample, rescore, wal_append, answer) and restore, a session's rebuild from its durable form.", "stage", base, m.StageBuckets, m.Stages)

	if len(m.Endpoints) > 0 {
		reqs := make(map[string]float64, len(m.Endpoints))
		errs := make(map[string]float64, len(m.Endpoints))
		keys := make([]string, 0, len(m.Endpoints))
		for ep, c := range m.Endpoints {
			keys = append(keys, ep)
			reqs[ep] = float64(c.Requests)
			errs[ep] = float64(c.Errors)
		}
		sort.Strings(keys)
		for _, ep := range keys {
			e.Counter("factcheck_endpoint_requests_total", "API requests per endpoint.", base.With("endpoint", ep), reqs[ep])
		}
		for _, ep := range keys {
			e.Counter("factcheck_endpoint_errors_total", "API 4xx/5xx responses per endpoint.", base.With("endpoint", ep), errs[ep])
		}
	}
	return e.Bytes()
}

// WritePrometheus serves a Metrics snapshot as a Prometheus scrape
// response.
func WritePrometheus(w http.ResponseWriter, m Metrics) {
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(PromText(m))
}
