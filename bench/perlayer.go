package main

import (
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
)

// perLayer assembles the per-layer metrics: the ladder's self times and
// per-op costs (unloaded, one request at a time), then the counters each layer
// kept while the load ran. A metric that does not apply to the workload — the
// gateway's on a direct server, the cascade's where it is off — reads 0.
func perLayer(st *stack, ld loadResult, lad *ladderResult, eng core.EngineStats, gw []promSample, v *verification, h hostFacts) []metric {
	w := st.w
	t := ld.meas
	lines, reqs := float64(max(1, lad.lines)), float64(max(1, lad.requests))
	selfShare := func(layer string) float64 { return float64(lad.self[layer]) / float64(lad.outer) }
	selfMs := func(layer string, per float64) float64 { return ms(lad.self[layer]) / per }
	opUs := func(op string) float64 { return float64(lad.ops[op]) / float64(time.Microsecond) / lines }
	engineCalls := 0
	for _, sp := range lad.spans {
		if sp.Op == "engine.detect" {
			engineCalls++ // one per request, or per chunk of a monitor post
		}
	}
	// Lines that reached the model: all of them, less repeats and what the
	// gate answered.
	modelLines := lines
	if w.cascade && lad.gated > 0 {
		modelLines = float64(max(1, lad.passed))
	}
	fwdMs := ms(lad.ops["transformer.forward"]) / modelLines
	altMs := ms(lad.altForward) / modelLines
	k := lad.kernels

	var m []metric
	add := func(name, unit string, value float64) {
		if math.IsNaN(value) || math.IsInf(value, 0) {
			value = 0 // a ratio whose base was empty
		}
		m = append(m, metric{name, unit, value})
	}

	add("host.nproc", "count", float64(runtime.NumCPU()))
	add("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	add("host.fma_gflops", "GFLOP/s", h.fmaGflops)
	add("host.stream_gbs", "GB/s", h.streamGBs)

	matmul, matmulQ8 := rate(k.matmulFlops, k.matmul)/1e9, rate(k.matmulQ8Ops, k.matmulQ8)/1e9
	add("tensor.matmul_gflops", "GFLOP/s", matmul)
	add("tensor.matmul_q8_gops", "GOP/s", matmulQ8)
	add("tensor.attn_scores_gflops", "GFLOP/s", rate(k.scoresFlops, k.scores)/1e9)
	add("tensor.attn_values_gflops", "GFLOP/s", rate(k.valuesFlops, k.values)/1e9)
	softmaxNs := 0.0
	if k.softmaxElems > 0 {
		softmaxNs = float64(k.softmax) / k.softmaxElems
	}
	add("tensor.softmax_ns_per_elem", "ns", softmaxNs)
	add("tensor.matmul.frac_of_peak", "share", matmul/h.fmaGflops)
	add("tensor.matmul_q8.frac_of_peak", "share", matmulQ8/h.fmaGflops)
	add("tensor.self_share", "share", selfShare("tensor"))

	enc, encQ8, dec, decQ8 := 0.0, 0.0, 0.0, 0.0
	if w.icl {
		dec, decQ8 = altMs, fwdMs
	} else {
		enc, encQ8 = fwdMs, altMs
	}
	add("transformer.encode_ms_per_line", "ms", enc)
	add("transformer.encode_int8_ms_per_line", "ms", encQ8)
	add("transformer.decode_ms_per_line", "ms", dec)
	add("transformer.decode_int8_ms_per_line", "ms", decQ8)
	add("transformer.prefix_build_ms", "ms", ms(lad.prefixBuild))
	add("transformer.allocs_per_call", "count", float64(lad.forwardMallocs)/float64(max(1, lad.forwardCalls)))
	add("transformer.self_share", "share", selfShare("transformer"))

	add("tokenizer.encode_us_per_line", "us", float64(lad.ops["tokenizer.encode"])/float64(time.Microsecond)/modelLines)
	add("tokenizer.self_share", "share", selfShare("tokenizer"))
	add("logparse.parse_us_per_line", "us", opUs("logparse.parse"))
	add("logparse.sentence_us_per_line", "us", opUs("logparse.sentence"))
	add("logparse.self_share", "share", selfShare("logparse"))

	add("sft.self_ms_per_line", "ms", selfMs("sft", modelLines))
	add("sft.self_share", "share", selfShare("sft"))
	add("icl.self_ms_per_line", "ms", selfMs("icl", modelLines))
	add("icl.self_share", "share", selfShare("icl"))
	add("icl.prefix_tokens", "count", float64(lad.prefixTokens))
	suffixMean, cached := 0.0, 0.0
	if w.icl {
		suffixMean = float64(lad.suffixTokens) / lines
		// Of the tokens a full prompt would run through the stack, the share
		// the cached prefix answers.
		cached = float64(lad.prefixTokens) / (float64(lad.prefixTokens) + suffixMean)
	}
	add("icl.suffix_tokens_mean", "count", suffixMean)
	add("icl.cached_token_share", "share", cached)

	add("cascade.score_us_per_line", "us", float64(lad.ops["cascade.score"])/float64(time.Microsecond)/float64(max(1, lad.gated)))
	add("cascade.pass_fraction", "share", eng.CascadePassFraction)
	cascadeAgree := 0.0
	if w.cascade {
		cascadeAgree = v.agree()
	}
	add("cascade.agree", "share", cascadeAgree)
	add("cascade.self_share", "share", selfShare("cascade"))

	add("core.detector.self_ms_per_line", "ms", selfMs("core.detector", modelLines))
	add("core.detector.self_share", "share", selfShare("core.detector"))

	add("core.engine.queue_wait_p50_ms", "ms", eng.QueueWaitP50Ms)
	add("core.engine.queue_wait_p99_ms", "ms", eng.QueueWaitP99Ms)
	add("core.engine.compute_p50_ms", "ms", eng.ComputeP50Ms)
	add("core.engine.compute_p99_ms", "ms", eng.ComputeP99Ms)
	add("core.engine.batch_occupancy", "lines", eng.BatchOccupancy)
	add("core.engine.max_queue_len", "count", float64(eng.MaxQueueLen))
	add("core.engine.dedup_saved_share", "share", float64(eng.DedupSaved)/float64(max(1, eng.Sentences)))
	add("core.engine.shed", "count", float64(eng.Shed))
	add("core.engine.expired", "count", float64(eng.Expired))
	add("core.engine.degraded", "count", float64(eng.Degraded))
	add("core.engine.self_ms_per_req", "ms", selfMs("core.engine", float64(max(1, engineCalls))))
	add("core.engine.self_share", "share", selfShare("core.engine"))

	add("core.http.self_ms_per_req", "ms", selfMs("core.http", reqs))
	add("core.http.req_bytes", "B", float64(t.reqBytes)/float64(max(1, t.sent)))
	add("core.http.resp_bytes", "B", float64(t.respBytes)/float64(max(1, t.sent)))
	// Whole-process: the generator's own allocations are in it, identically
	// on both sides of a comparison.
	add("core.http.mallocs_per_req", "count", float64(ld.use.mallocs)/float64(max(1, t.sent)))
	add("core.http.self_share", "share", selfShare("core.http"))

	alerts, flagged, malformed, evicted := 0, 0, 0, 0
	for i := range ld.outs {
		if o := &ld.outs[i]; o.measure && o.class == ok {
			alerts += o.report.Alerts
			flagged += o.report.FlaggedTraces
			malformed += o.report.Malformed
			evicted += o.report.EvictedTraces
		}
	}
	add("core.monitor.self_ms_per_line", "ms", selfMs("core.monitor", lines))
	add("core.monitor.alerts", "count", float64(alerts))
	add("core.monitor.flagged_traces", "count", float64(flagged))
	add("core.monitor.malformed", "count", float64(malformed))
	add("core.monitor.tracker_evicted", "count", float64(evicted))
	add("core.monitor.self_share", "share", selfShare("core.monitor"))

	g := gatewayCounters(gw)
	add("gateway.hop_p50_ms", "ms", hopP50(lad))
	add("gateway.forward_p50_ms", "ms", g.forwardP50)
	add("gateway.forward_p99_ms", "ms", g.forwardP99)
	add("gateway.retries", "count", g.retries)
	add("gateway.hedges", "count", g.hedges)
	add("gateway.hedge_wins", "count", g.hedgeWins)
	add("gateway.shed", "count", g.shed)
	add("gateway.ejections", "count", g.ejections)
	add("gateway.breaker_open", "count", g.breakerOpen)
	add("gateway.replica_imbalance", "ratio", g.imbalance)
	add("gateway.self_share", "share", selfShare("gateway"))

	add("gen.sent", "count", float64(t.sent))
	add("gen.ok", "count", float64(t.ok))
	add("gen.failed", "count", float64(t.failed()))
	add("gen.warmup_sent", "count", float64(ld.warm.sent))
	add("gen.warmup_failed", "count", float64(ld.warm.failed()))
	add("gen.err_shed", "count", float64(t.shed))
	add("gen.err_timeout", "count", float64(t.timeout))
	add("gen.err_server", "count", float64(t.server))
	add("gen.err_transport", "count", float64(t.transport))
	add("gen.err_malformed", "count", float64(t.bad))
	add("gen.fail_share", "share", share(t.failed(), t.sent))
	add("gen.p90_ms", "ms", percentile(t.latMs, 0.9))
	add("gen.p99_ms", "ms", percentile(t.latMs, 0.99))
	add("gen.late_p99_ms", "ms", percentile(t.lateMs, 0.99))
	add("gen.inflight_cap_hits", "count", float64(ld.capHits))
	wrapped := 0.0
	if ld.wrapped {
		wrapped = 1
	}
	add("gen.stream_wrapped", "count", wrapped)
	add("gen.latency_samples", "count", float64(len(t.latMs)))

	// Whole-process, generator included. Not end to end: below saturation its
	// spread on a shared host is wider than any bound (README, "Left out").
	add("go.cpu_ms_per_line", "ms", ms(ld.use.cpu)/float64(max(1, t.lines)))
	add("go.gc_cycles", "count", float64(ld.use.gcs))
	add("go.gc_pause_total_ms", "ms", ms(ld.use.gcPause))
	add("go.setup_peak_rss_mb", "MB", h.setupPeakRSS)
	add("go.heap_alloc_mb_per_kline", "MB", ld.use.allocMB/(float64(max(1, t.lines))/1000))

	add("quality.line_f1", "F1", v.truth.F1())
	add("trace.overhead_share", "share", float64(lad.traced-lad.untraced)/float64(lad.untraced))
	add("trace.ladder_lines", "count", float64(lad.lines))
	return m
}

// hostFacts is what a traced run measures about the machine and the process
// before any load: the pure-Go ceilings and the resident-set high-water mark
// set-up (training) left.
type hostFacts struct {
	fmaGflops, streamGBs float64
	setupPeakRSS         float64
}

// hopP50 is the median, over the ladder's requests, of the time through the
// gateway minus the time straight to a replica.
func hopP50(lad *ladderResult) float64 {
	direct := map[int]int64{}
	for _, sp := range lad.spans {
		if sp.Op == "http.detect" {
			direct[sp.Req] = sp.End - sp.Start
		}
	}
	var hops []float64
	for _, sp := range lad.spans {
		if sp.Op == "gateway.forward" {
			hops = append(hops, float64(sp.End-sp.Start-direct[sp.Req])/float64(time.Millisecond))
		}
	}
	return percentile(hops, 0.5)
}

type gatewayStats struct {
	forwardP50, forwardP99                                   float64
	retries, hedges, hedgeWins, shed, ejections, breakerOpen float64
	imbalance                                                float64 // max ÷ mean forwarded per replica
}

func gatewayCounters(samples []promSample) gatewayStats {
	var g gatewayStats
	var forwarded []float64
	for _, s := range samples {
		switch s.name {
		case "repro_gateway_forward_latency_ms":
			if strings.Contains(s.labels, `"0.5"`) {
				g.forwardP50 = s.value
			} else {
				g.forwardP99 = s.value
			}
		case "repro_gateway_retries_total":
			g.retries = s.value
		case "repro_gateway_hedges_total":
			g.hedges = s.value
		case "repro_gateway_hedge_wins_total":
			g.hedgeWins = s.value
		case "repro_gateway_shed_total":
			g.shed = s.value
		case "repro_gateway_ejections_total":
			g.ejections += s.value
		case "repro_gateway_breaker_open_total":
			g.breakerOpen = s.value
		case "repro_gateway_forwarded_total":
			forwarded = append(forwarded, s.value)
		}
	}
	total, most := 0.0, 0.0
	for _, f := range forwarded {
		total += f
		most = max(most, f)
	}
	if total > 0 {
		g.imbalance = most / (total / float64(len(forwarded)))
	}
	return g
}
