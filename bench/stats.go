package main

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// supportedTail returns the highest of the usual percentiles that still has
// at least ten samples beyond it among n, and 0 when not even the median
// does. A percentile with fewer is one or two slow requests, not a tail.
func supportedTail(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 750, 900, 950, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = float64(permille) / 1000
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally is the generator's account of one phase.
type tally struct {
	sent, ok                              int
	shed, timeout, server, transport, bad int
	lines                                 int // lines of correctly answered requests
	withinSLO                             int
	reqBytes, respBytes                   int
	latMs, lateMs                         []float64 // latMs: answered requests only
}

func (t *tally) failed() int { return t.sent - t.ok }

// summarize tallies the measured outcomes against the latency limit. A
// request that failed, was shed or refused counts as sent and as missing the
// limit; it contributes no latency sample.
func summarize(outs []outcome, reqs []request, slo time.Duration, measured bool) tally {
	var t tally
	for i := range outs {
		o := &outs[i]
		if o.measure != measured {
			continue
		}
		t.sent++
		t.reqBytes += o.reqB
		t.respBytes += o.respB
		t.lateMs = append(t.lateMs, ms(o.late))
		switch o.class {
		case ok:
			t.ok++
			t.lines += reqs[o.req].n
			t.latMs = append(t.latMs, ms(o.latency))
			if o.latency <= slo {
				t.withinSLO++
			}
		case errShed:
			t.shed++
		case errTimeout:
			t.timeout++
		case errServer:
			t.server++
		case errTransport:
			t.transport++
		case errMalformed:
			t.bad++
		}
	}
	return t
}

func share(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func percentile(samples []float64, q float64) float64 { return metrics.Percentile(samples, q) }

// spread is the interquartile range of xs as a share of their median, with
// the quartiles statistics.quantiles(xs, n=4) would give (exclusive method).
func spread(xs []float64) (median, rel float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], 0
		}
		return 0, 0
	}
	quart := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	median = quart(2)
	if median == 0 {
		return 0, 0
	}
	rel = (quart(3) - quart(1)) / median
	if rel < 0 {
		rel = -rel
	}
	return median, rel
}
