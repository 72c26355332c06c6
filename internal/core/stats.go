package core

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// EngineStats is a snapshot of one served model's coalescing-queue counters,
// reported under "stats" in GET /v1/models. It splits serving latency into
// its two server-side stages — time spent queued before a batch formed
// (queue_wait) and time spent in the model (compute) — and records how deep
// the job queue got, which is the saturation signal the load lab watches
// while replaying open-loop traffic.
type EngineStats struct {
	// QueueLen is the number of jobs queued at snapshot time.
	QueueLen int `json:"queue_len"`
	// MaxQueueLen is the deepest the queue has been since the last reset.
	MaxQueueLen int `json:"max_queue_len"`
	// Requests and Sentences count accepted Detect jobs and their sentences.
	Requests  int64 `json:"requests"`
	Sentences int64 `json:"sentences"`
	// Batches counts coalesced batches executed; DedupSaved counts sentences
	// the sentence-dedup layer answered without a model invocation: repeats
	// of an identical string within one batch.
	Batches    int64 `json:"batches"`
	DedupSaved int64 `json:"dedup_saved"`
	// MemoHits counts distinct sentences the cascade gate passed that the
	// token memo answered without a model invocation: their token sequence
	// was answered earlier in the batch or held by the memo. MemoEntries is
	// the number of token sequences the memo holds; both stay 0 for a model
	// that does not memoize (a remote one, or a foreign Model).
	MemoHits    int64 `json:"memo_hits"`
	MemoEntries int   `json:"memo_entries"`
	// Shed counts requests refused by admission control, the queue-wait
	// budget, or a model that refused their batch, as a fleet front's does
	// when every replica it tried shed it (the 429 Retry-After path);
	// Expired counts requests whose deadline passed while queued, dropped at
	// dequeue without compute.
	Shed    int64 `json:"shed"`
	Expired int64 `json:"expired"`
	// Degraded counts sentences answered by the brownout tier;
	// BrownoutActive reports whether that tier is engaged right now.
	Degraded       int64 `json:"degraded"`
	BrownoutActive bool  `json:"brownout_active"`
	// Cascade counters: of the unique sentences the stage-1 gate evaluated,
	// how many short-circuited to a verdict without the transformer and how
	// many passed through (unparseable lines always pass). PassFraction is
	// Passed/Evaluated — the fraction of gated traffic that still pays full
	// transformer cost.
	CascadeEvaluated    int64   `json:"cascade_evaluated"`
	CascadeShort        int64   `json:"cascade_short_circuited"`
	CascadePassed       int64   `json:"cascade_passed"`
	CascadePassFraction float64 `json:"cascade_pass_fraction"`
	// BatchOccupancy is the mean number of sentences per executed batch.
	BatchOccupancy float64 `json:"batch_occupancy"`
	// Stage latency percentiles in milliseconds since the last reset,
	// estimated from the log-bucket histograms /metrics exports.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	ComputeP50Ms   float64 `json:"compute_p50_ms"`
	ComputeP99Ms   float64 `json:"compute_p99_ms"`

	queueWait, compute metrics.Histogram // the histograms the four fields read
}

// statsRecorder accumulates EngineStats for one engine. All methods are safe
// for concurrent use; the recorder is written from every request goroutine and
// every inference worker, so the critical sections stay tiny (bump a bucket,
// bump counters).
type statsRecorder struct {
	mu sync.Mutex
	st EngineStats // the counters and histograms; snapshot derives the rest
}

// enqueued records one accepted request and the queue depth observed at
// enqueue time.
func (s *statsRecorder) enqueued(sentences, queueLen int) {
	s.mu.Lock()
	s.st.Requests++
	s.st.Sentences += int64(sentences)
	s.st.MaxQueueLen = max(s.st.MaxQueueLen, queueLen)
	s.mu.Unlock()
}

// ranBatch records one executed batch, which a worker began at started: each
// live job's queue wait, the model time, and how many sentences
// deduplication and the token memo answered for free.
func (s *statsRecorder) ranBatch(live []*detectJob, started time.Time, dedupSaved, memoHits int) {
	compute := time.Since(started)
	s.mu.Lock()
	s.st.Batches++
	s.st.DedupSaved += int64(dedupSaved)
	s.st.MemoHits += int64(memoHits)
	for _, j := range live {
		s.st.queueWait.Observe(float64(started.Sub(j.enqueued)) / float64(time.Millisecond))
	}
	s.st.compute.Observe(float64(compute) / float64(time.Millisecond))
	s.mu.Unlock()
}

// shedRequest counts one request refused by admission control, the
// queue-wait budget, or a model that refused its batch.
func (s *statsRecorder) shedRequest() {
	s.mu.Lock()
	s.st.Shed++
	s.mu.Unlock()
}

// expiredRequest counts one request whose deadline passed while it was
// queued.
func (s *statsRecorder) expiredRequest() {
	s.mu.Lock()
	s.st.Expired++
	s.mu.Unlock()
}

// degradedServed counts sentences answered by the brownout tier.
func (s *statsRecorder) degradedServed(sentences int) {
	s.mu.Lock()
	s.st.Degraded += int64(sentences)
	s.mu.Unlock()
}

// cascadeGated records one batch's stage-1 gating: evaluated unique
// sentences, of which short were short-circuited without the transformer.
func (s *statsRecorder) cascadeGated(evaluated, short int) {
	s.mu.Lock()
	s.st.CascadeEvaluated += int64(evaluated)
	s.st.CascadeShort += int64(short)
	s.mu.Unlock()
}

// computeP50 returns the median model time since the last reset, the per-job
// drain estimate behind Retry-After hints. Zero when no batch has run yet.
func (s *statsRecorder) computeP50() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.st.compute.Quantile(0.50) * float64(time.Millisecond))
}

// snapshot renders the recorder as EngineStats. queueLen, brownoutActive
// and memoEntries are sampled by the caller (they live on the engine, not
// the recorder).
func (s *statsRecorder) snapshot(queueLen int, brownoutActive bool, memoEntries int) EngineStats {
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	st.QueueLen = queueLen
	st.BrownoutActive = brownoutActive
	st.MemoEntries = memoEntries
	st.CascadePassed = st.CascadeEvaluated - st.CascadeShort
	if st.Batches > 0 {
		st.BatchOccupancy = float64(st.Sentences) / float64(st.Batches)
	}
	if st.CascadeEvaluated > 0 {
		st.CascadePassFraction = float64(st.CascadePassed) / float64(st.CascadeEvaluated)
	}
	st.QueueWaitP50Ms = st.queueWait.Quantile(0.50)
	st.QueueWaitP99Ms = st.queueWait.Quantile(0.99)
	st.ComputeP50Ms = st.compute.Quantile(0.50)
	st.ComputeP99Ms = st.compute.Quantile(0.99)
	return st
}

// reset zeroes every counter and latency histogram.
func (s *statsRecorder) reset() {
	s.mu.Lock()
	s.st = EngineStats{}
	s.mu.Unlock()
}
