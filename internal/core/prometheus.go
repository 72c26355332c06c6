package core

import (
	"net/http"

	"repro/internal/metrics"
)

// handleMetrics is GET /metrics: the Prometheus text exposition of every
// served model's EngineStats — the same numbers GET /v1/models reports as
// JSON, rendered for scrapers. It is how saturation (queue depth, batch
// occupancy, stage latency histograms, shed/expired/degraded/cascade
// counters) becomes visible to humans and dashboards across a fleet of
// replicas, whose histograms add up bucket by bucket.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p metrics.PromWriter
	if s.instance != "" {
		p.Gauge("repro_instance_info", "replica identity; the instance label carries anomalyd -instance", 1, "instance", s.instance)
	}
	readiness, ready := s.reg.readiness()
	p.Gauge("repro_ready", "1 when every model is ready (the /readyz verdict)", boolGauge(ready))
	for _, mr := range readiness {
		p.Gauge("repro_model_saturation", "queue depth over admission capacity, per model", mr.Saturation, "model", mr.Name)
	}
	for _, info := range s.reg.Info() {
		m := info.Name
		st := info.Stats
		p.Gauge("repro_queue_len", "jobs queued right now", float64(st.QueueLen), "model", m)
		p.Gauge("repro_queue_cap", "coalescing queue capacity", float64(info.QueueDepth), "model", m)
		p.Gauge("repro_shed_queue_depth", "admission-control budget (0: shedding disabled)", float64(info.ShedQueueDepth), "model", m)
		p.Gauge("repro_max_queue_len", "deepest queue since the last stats reset", float64(st.MaxQueueLen), "model", m)
		p.Gauge("repro_active_traces", "traces tracked by the online monitor", float64(info.ActiveTraces), "model", m)
		p.Counter("repro_requests_total", "accepted detect jobs", float64(st.Requests), "model", m)
		p.Counter("repro_sentences_total", "sentences across accepted jobs", float64(st.Sentences), "model", m)
		p.Counter("repro_batches_total", "coalesced batches executed", float64(st.Batches), "model", m)
		p.Counter("repro_dedup_saved_total", "sentences answered by the dedup layer without a model invocation", float64(st.DedupSaved), "model", m)
		p.Counter("repro_memo_hits_total", "gate-passed sentences the token memo answered without a model invocation", float64(st.MemoHits), "model", m)
		p.Gauge("repro_memo_entries", "token sequences the verdict memo holds (0: the model does not memoize)", float64(st.MemoEntries), "model", m)
		p.Counter("repro_shed_total", "requests refused by admission control or the queue-wait budget (429)", float64(st.Shed), "model", m)
		p.Counter("repro_expired_total", "requests whose deadline passed while queued (504)", float64(st.Expired), "model", m)
		p.Counter("repro_degraded_total", "sentences answered by the brownout tier", float64(st.Degraded), "model", m)
		p.Gauge("repro_brownout_active", "1 while the brownout tier is engaged", boolGauge(st.BrownoutActive), "model", m)
		p.Counter("repro_cascade_evaluated_total", "unique sentences the stage-1 gate scored", float64(st.CascadeEvaluated), "model", m)
		p.Counter("repro_cascade_short_circuited_total", "sentences the gate answered without the transformer", float64(st.CascadeShort), "model", m)
		p.Counter("repro_cascade_passed_total", "sentences that passed the gate to the transformer", float64(st.CascadePassed), "model", m)
		p.Gauge("repro_batch_occupancy", "mean sentences per executed batch", st.BatchOccupancy, "model", m)
		const stage = "server-side stage latency since the last stats reset, in log buckets every replica shares"
		p.Histogram("repro_stage_latency_ms", stage, &st.queueWait, "model", m, "stage", "queue_wait")
		p.Histogram("repro_stage_latency_ms", stage, &st.compute, "model", m, "stage", "compute")
	}
	sse := s.bus.stats()
	p.Gauge("repro_sse_subscribers", "open /v1/alerts connections", float64(sse.Subscribers))
	p.Counter("repro_sse_dropped_total", "alert events dropped to slow SSE subscribers", float64(sse.Dropped))
	w.Header().Set("Content-Type", metrics.ContentType)
	w.Write(p.Bytes())
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
