package metrics

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// bucketRatio is the width of one bucket: bounds are four per octave.
var bucketRatio = math.Pow(2, 0.25)

// TestHistogramQuantileNearPercentile: on three shapes of latency-like
// samples, every quantile the engine reports reads within one bucket ratio
// of Percentile's exact order statistic.
func TestHistogramQuantileNearPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func() float64{
		"lognormal":   func() float64 { return math.Exp(rng.NormFloat64()) },
		"uniform":     func() float64 { return 1 + 99*rng.Float64() },
		"exponential": func() float64 { return 0.01 + 5*rng.ExpFloat64() },
		"bimodal": func() float64 {
			if rng.Intn(10) == 0 {
				return 200 + 50*rng.Float64()
			}
			return 2 + rng.Float64()
		},
	}
	for name, draw := range shapes {
		var h Histogram
		samples := make([]float64, 5000)
		for i := range samples {
			samples[i] = draw()
			h.Observe(samples[i])
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			want, got := Percentile(samples, q), h.Quantile(q)
			if r := got / want; r > bucketRatio || r < 1/bucketRatio {
				t.Errorf("%s p%v: histogram %.4g, exact %.4g (ratio %.3f, bucket ratio %.3f)", name, q*100, got, want, r, bucketRatio)
			}
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	h.Observe(3)
	if got := h.Quantile(0.99); got < 3/bucketRatio || got > 3*bucketRatio {
		t.Fatalf("one sample of 3: p99 = %v", got)
	}
	if lo, hi := h.Quantile(-1), h.Quantile(2); lo != h.Quantile(0) || hi != h.Quantile(1) {
		t.Fatalf("q outside [0,1] not clamped: %v, %v", lo, hi)
	}
	h.Observe(1e9) // beyond the last bound: the overflow bucket
	if got := h.Quantile(1); got != bucketBounds[numBounds-1] {
		t.Fatalf("a rank in the overflow bucket reads %v, want the last bound %v", got, bucketBounds[numBounds-1])
	}
}

// bucketCounts parses the _bucket samples of an exposition, keyed by their
// labels (le included).
func bucketCounts(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "lat_bucket")
		if !ok {
			continue
		}
		sp := strings.LastIndexByte(rest, ' ')
		v, err := strconv.ParseFloat(rest[sp+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		out[rest[:sp]] = v
	}
	return out
}

// TestHistogramExpositionsAdd: two processes' scrapes of one stage add up,
// bucket by bucket, to the scrape of one process that saw all the samples —
// the property quantile gauges lack.
func TestHistogramExpositionsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var whole, a, b Histogram
	for i := 0; i < 3000; i++ {
		v := math.Exp(2 * rng.NormFloat64())
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	scrape := func(h *Histogram) map[string]float64 {
		var w PromWriter
		w.Histogram("lat", "h", h, "stage", "compute")
		return bucketCounts(t, string(w.Bytes()))
	}
	want, ga, gb := scrape(&whole), scrape(&a), scrape(&b)
	if len(want) != numBounds+1 {
		t.Fatalf("%d buckets in the exposition, want %d", len(want), numBounds+1)
	}
	for le, n := range want {
		if ga[le]+gb[le] != n {
			t.Errorf("bucket %s: halves sum to %v+%v, whole has %v", le, ga[le], gb[le], n)
		}
	}
}

func TestHistogramAllocationFree(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(3.7) }); n != 0 {
		t.Errorf("Observe allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Quantile(0.99) }); n != 0 {
		t.Errorf("Quantile allocates %v times", n)
	}
}
