package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// loadResult is the generator's and the process's account of one load phase.
type loadResult struct {
	outs    []outcome
	warm    tally
	meas    tally
	wall    time.Duration // measured window: first measured send to last completion
	use     usage         // process consumption over the measured window
	capHits int
	wrapped bool    // a closed loop outlasted its generated requests and reused them
	peakRSS float64 // MB, largest resident set sampled from the first warm-up request on
}

// load drives the workload's stream at the stack: warm-up, then the measured
// window of the given length. Server counters are zeroed and process usage is
// sampled at the boundary, so both cover the measured window only.
func (st *stack) load(s *stream, client *http.Client, window time.Duration) loadResult {
	var res loadResult
	clk := wallClock{}
	send := httpSender(client, st.target)
	var before usage
	var t0 time.Time
	stopRSS := watchRSS()
	boundary := func() {
		for _, r := range st.replicas {
			// In-process and not over HTTP: a request here would sit in the
			// dispatcher's path. The default model always exists.
			_ = r.srv.Registry().ResetStats("")
		}
		before, t0 = snapshot(), clk.Now()
	}
	if st.w.loop == openLoop {
		res.outs, res.capHits = runOpen(clk, s.reqs, send, inflightCap, warmup, boundary)
		res.wall = clk.Now().Sub(t0)
	} else {
		clients := st.w.clients
		if clients == 0 {
			clients = runtime.GOMAXPROCS(0)
		}
		var next atomic.Int64
		warm, _ := runClosed(clk, s.reqs, send, clients, warmup, &next, false)
		boundary()
		res.outs, res.wall = runClosed(clk, s.reqs, send, clients, window, &next, true)
		res.outs = append(res.outs, warm...)
		res.wrapped = int(next.Load()) > len(s.reqs)
	}
	res.use = snapshot().since(before)
	res.peakRSS = stopRSS()
	res.warm = summarize(res.outs, s.reqs, st.w.slo, false)
	res.meas = summarize(res.outs, s.reqs, st.w.slo, true)
	return res
}

// verification is the output-correctness check: served verdicts against the
// same detector called directly in-process on the same sentences, and against
// the Flow-Bench ground truth.
type verification struct {
	checked, agreed int               // lines whose verdict was recomputed / matched
	truth           metrics.Confusion // served verdicts vs ground truth, every answered detect line
	offenders       []string
	more            int // offenders beyond the ten kept
}

func (v *verification) offend(format string, args ...any) {
	if len(v.offenders) < 10 {
		v.offenders = append(v.offenders, fmt.Sprintf(format, args...))
	} else {
		v.more++
	}
}

func (v *verification) agree() float64 { return share(v.agreed, v.checked) }

// verify checks every measured reply's shape and recomputes the verdicts of
// one request in w.verifyOne with st.det.DetectBatch — the transformer alone,
// no gate, no queue. Recomputing them all would cost as much as serving them.
// For /v1/monitor the served side is the post's alert count.
func (st *stack) verify(s *stream, outs []outcome) *verification {
	v := &verification{}
	var sample []*outcome
	for i := range outs {
		o := &outs[i]
		if !o.measure {
			continue
		}
		r := &s.reqs[o.req]
		if o.class != ok {
			v.offend("request %d %s: %s", o.req, r.path, o.detail)
			continue
		}
		if r.kind == kindMonitor {
			if o.report.Processed != r.n || o.report.Malformed != 0 {
				v.offend("post %d: processed %d of %d lines, %d malformed", o.req, o.report.Processed, r.n, o.report.Malformed)
			}
		} else {
			for k, got := range o.labels {
				switch truth := s.lines[r.first+k].label; {
				case got == 1 && truth == 1:
					v.truth.TP++
				case got == 1:
					v.truth.FP++
				case truth == 1:
					v.truth.FN++
				default:
					v.truth.TN++
				}
			}
		}
		if o.req%st.w.verifyOne == 0 {
			sample = append(sample, o)
		}
	}

	direct := make([][]core.Result, len(sample))
	var wg sync.WaitGroup
	var next atomic.Int64
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sample) {
					return
				}
				r := &s.reqs[sample[i].req]
				sentences := make([]string, r.n)
				for k := range sentences {
					sentences[k] = s.lines[r.first+k].sentence
				}
				for lo := 0; lo < len(sentences); lo += st.cfg.MaxBatch {
					hi := min(lo+st.cfg.MaxBatch, len(sentences))
					direct[i] = append(direct[i], st.det.DetectBatch(sentences[lo:hi])...)
				}
			}
		}()
	}
	wg.Wait()

	for i, o := range sample {
		r := &s.reqs[o.req]
		v.checked += r.n
		if r.kind == kindMonitor {
			want := 0
			for _, d := range direct[i] {
				want += d.Label
			}
			miss := want - o.report.Alerts
			if miss < 0 {
				miss = -miss
			}
			v.agreed += r.n - miss
			if miss != 0 {
				v.offend("post %d: %d alerts served, %d computed directly", o.req, o.report.Alerts, want)
			}
			continue
		}
		for k, d := range direct[i] {
			if int(o.labels[k]) == d.Label {
				v.agreed++
			} else if !st.w.cascade {
				v.offend("request %d line %d: served %d, direct %d (score %.4f): %q", o.req, k, o.labels[k], d.Label, d.Score, s.lines[r.first+k].sentence)
			}
		}
	}
	// The gate is calibrated to keep at least 99% of the transformer's
	// verdicts; without it the served verdicts are the transformer's.
	floor := 1.0
	if st.w.cascade {
		floor = 0.99
	}
	if v.checked == 0 {
		v.offend("no verdict was checked")
	} else if v.agree() < floor {
		v.offend("verdict_agree %.4f below %.2f over %d lines", v.agree(), floor, v.checked)
	}
	return v
}
