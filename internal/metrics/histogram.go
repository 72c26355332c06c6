package metrics

import (
	"math"
	"slices"
)

// The bucket bounds every Histogram shares: four per octave from 2^-10
// (about a microsecond, in milliseconds) to 2^14 (about 16 s), plus an
// overflow bucket above the last. Fixed bounds are what let two processes'
// histograms add up bucket by bucket.
const (
	bucketsPerOctave = 4
	minExp, maxExp   = -10, 14
	numBounds        = (maxExp-minExp)*bucketsPerOctave + 1
)

var bucketBounds = func() (b [numBounds]float64) {
	for i := range b {
		b[i] = math.Exp2(minExp + float64(i)/bucketsPerOctave)
	}
	return b
}()

// Histogram counts samples into the fixed log-spaced bucketBounds, the
// Prometheus classic histogram: a quantile read is a walk over the buckets,
// not a sort of the samples, and Observe and Quantile allocate nothing. The
// zero value is empty and ready to use; a Histogram is a plain value, so
// assignment copies it. Not safe for concurrent use.
type Histogram struct {
	counts [numBounds + 1]uint64 // counts[i]: samples in (bucketBounds[i-1], bucketBounds[i]]; the last is the overflow
	count  uint64
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i, _ := slices.BinarySearch(bucketBounds[:], v)
	h.counts[i]++
	h.count++
	h.sum += v
}

// Quantile estimates the q-quantile (q clamped to [0,1]) as Prometheus's
// histogram_quantile does: find the bucket holding rank q·count and
// interpolate linearly inside it, from 0 for the first bucket. A rank in the
// overflow bucket reads as the last bound. An empty histogram yields 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(h.count)
	lo, below := 0.0, uint64(0)
	for i, c := range h.counts[:numBounds] {
		if c > 0 && float64(below+c) >= rank {
			return lo + (bucketBounds[i]-lo)*(rank-float64(below))/float64(c)
		}
		lo, below = bucketBounds[i], below+c
	}
	return lo
}
