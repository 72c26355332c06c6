package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cascade"
	"repro/internal/tensor"
)

// errServerClosed is returned by detect and monitor calls after the serving
// engine (or the registry/server that owns it) has been closed.
var errServerClosed = errors.New("core: server closed")

// BatchConfig tunes one served model's request-coalescing layer.
type BatchConfig struct {
	// MaxBatch caps the number of sentences per model invocation
	// (default 32).
	MaxBatch int
	// FlushDelay is ignored: a free worker runs whatever is queued at once,
	// so there is no partial batch left to wait on.
	//
	// Deprecated: ignored. Kept only so existing callers compile.
	FlushDelay time.Duration
	// Workers is the number of concurrent inference workers (default
	// GOMAXPROCS). The batched detection path is read-only on the model,
	// so workers run in parallel on one detector.
	Workers int
	// QueueDepth bounds queued jobs before enqueueing blocks (default 256).
	QueueDepth int
	// MaxRequest caps the sentence count of a single HTTP batch request
	// (default 2048). QueueDepth bounds jobs, not sentences, so without
	// this cap one huge batch would bypass backpressure entirely.
	MaxRequest int

	// ShedQueueDepth is the admission-control budget: a request arriving
	// while the queue already holds this many jobs is shed with 429
	// Retry-After instead of deepening a backlog the workers cannot drain.
	// The count is exact — every job no worker has started is in the queue —
	// so a saturated model holds at most Workers running batches plus
	// ShedQueueDepth waiting jobs. Zero disables shedding (requests block on
	// the queue as before); values above QueueDepth are clamped to it.
	ShedQueueDepth int
	// MaxQueueWait is the per-job queue-time budget: a job that sat queued
	// longer than this is shed at dequeue (same 429 contract) instead of
	// computed — its answer would arrive too stale to matter. Zero disables.
	MaxQueueWait time.Duration
	// DefaultDeadline is applied to detect requests that carry no
	// ?deadline_ms; a request whose deadline passes while queued is dropped
	// at dequeue (504) without touching the model. Zero means no default.
	DefaultDeadline time.Duration
	// BrownoutDepth engages the graceful-degradation tier: when the queue
	// has stayed at or above this depth for BrownoutHold and the model has
	// a cascade gate (Registry.SetCascade), detect traffic is answered by
	// the gate alone (degraded:true) until the queue drains to
	// BrownoutDepth/2. Zero disables brownout.
	BrownoutDepth int
	// BrownoutHold is how long the queue must stay saturated before the
	// tier engages — a single burst should shed, not degrade (default
	// 250ms when BrownoutDepth is set).
	BrownoutHold time.Duration
}

func (c *BatchConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxRequest <= 0 {
		c.MaxRequest = 2048
	}
	if c.ShedQueueDepth > c.QueueDepth {
		c.ShedQueueDepth = c.QueueDepth
	}
	if c.BrownoutDepth > 0 && c.BrownoutHold <= 0 {
		c.BrownoutHold = 250 * time.Millisecond
	}
}

// detectJob is one coalescable unit of work: the sentences of a single HTTP
// request, programmatic DetectContext call or monitor chunk, and the slot their
// results land in. ctx is the caller's context: a job whose caller has gone
// away by the time its batch runs is skipped instead of computed for nobody.
type detectJob struct {
	ctx       context.Context
	sentences []string
	enqueued  time.Time // when the job entered the queue (stage-latency stats)
	results   []Result
	degraded  bool  // the brownout tier answered, not the primary model
	err       error // set before done closes when the job was skipped
	done      chan struct{}
}

// wait blocks until the job's results are ready (in input order) and returns
// them, or returns ctx.Err() as soon as the submitter's context is done,
// whether the job is still queued or in flight.
func (j *detectJob) wait() (results []Result, degraded bool, err error) {
	select {
	case <-j.done:
		// A skipped job closes done with err set; returning it (rather than
		// assuming results exist) matters because this select can win the
		// race against ctx.Done after a cancellation.
		return j.results, j.degraded, j.err
	case <-j.ctx.Done():
		return nil, false, j.ctx.Err()
	}
}

// engine is one served model: a job queue and a pool of workers that form
// their own batches from it and own tensor workspaces, plus the serving state
// of the model — its name, trace tracker, stats, cascade gate (also its
// brownout tier) and brownout state. A Registry slot is its engine, and
// Registry.Add is the only place one starts.
//
// Lifecycle: newEngine starts the goroutines; Close drains queued jobs, waits
// for in-flight batches to finish, and releases the workers. After Close,
// submit fails with errServerClosed.
type engine struct {
	name    string
	model   Model
	cfg     BatchConfig
	tracker *traceTracker // the model's online trace windows, across monitor ingests
	stats   statsRecorder
	gate    atomic.Pointer[cascade.Gate] // nil: cascade off, no brownout tier
	memo    *verdictMemo                 // nil: model is not a localDetector
	brown   brownout
	jobs    chan *detectJob // the whole backlog: nothing waits anywhere else

	mu     sync.RWMutex // guards closed vs. enqueue
	closed bool
	wg     sync.WaitGroup
}

// newEngine fills cfg's defaults and starts the worker pool for m.
func newEngine(name string, m Model, cfg BatchConfig) *engine {
	cfg.fill()
	e := &engine{
		name:    name,
		model:   m,
		cfg:     cfg,
		tracker: newTraceTracker(DefaultTracePolicy(), 0),
		brown: brownout{
			high: cfg.BrownoutDepth,
			low:  cfg.BrownoutDepth / 2,
			hold: cfg.BrownoutHold,
		},
		jobs: make(chan *detectJob, cfg.QueueDepth),
	}
	if _, ok := m.(*localDetector); ok {
		e.memo = newVerdictMemo()
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close drains queued requests, stops the inference workers, and fails
// subsequent submit calls with errServerClosed. It blocks until every queued
// job and in-flight batch has completed — the drain Server.Close and
// anomalyd's SIGTERM path rely on — and is idempotent.
func (e *engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs)
	e.mu.Unlock()
	e.wg.Wait()
}

// submit hands sentences to the coalescing layer and returns the job to wait
// on. Every front end — detect requests and monitor chunks alike — enters
// here, and the batch runner skips enqueued jobs whose context has already
// been cancelled instead of computing results nobody will read.
//
// Overload handling happens here, before any work is queued. When the model
// has a cascade gate and sustained saturation has engaged the brownout tier,
// the request is answered by the gate alone immediately (an already-done job
// marked degraded) without touching the queue. The watermark is checked
// before the clock is read, so a model without one pays no time.Now here.
// Otherwise, if the queue already holds ShedQueueDepth jobs, the request is
// shed with an OverloadedError carrying a Retry-After estimate — the 429
// path — rather than deepening a backlog the workers cannot drain.
func (e *engine) submit(ctx context.Context, sentences []string) (*detectJob, error) {
	j := &detectJob{ctx: ctx, sentences: sentences, done: make(chan struct{})}
	if len(sentences) == 0 {
		close(j.done)
		return j, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	depth := len(e.jobs)
	if g := e.gate.Load(); g != nil && e.brown.high > 0 && e.brown.observe(depth, time.Now()) {
		j.results, j.degraded = gateAnswers(g, sentences), true
		e.stats.degradedServed(len(sentences))
		close(j.done)
		return j, nil
	}
	if shed := e.cfg.ShedQueueDepth; shed > 0 && depth >= shed {
		e.stats.shedRequest()
		return nil, &OverloadedError{RetryAfter: e.retryAfter(depth)}
	}
	j.enqueued = time.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, errServerClosed
	}
	// The send below blocks while e.mu is read-held on purpose: holding the
	// RLock across the send is the shutdown handshake — Close takes the
	// write lock before closing e.jobs, so it waits out any sender in
	// flight, and ctx.Done bounds how long that can be.
	//lint:ignore locksafe send under RLock is the close-safe handoff; Close's write lock waits for senders, ctx bounds the wait
	select {
	case e.jobs <- j:
		// len(e.jobs) right after our send is the queue depth this request
		// observed — the saturation signal /v1/models reports.
		e.stats.enqueued(len(sentences), len(e.jobs))
		return j, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// retryAfter estimates how long a shed client should wait before retrying:
// the expected time for the backlog ahead of it to drain, assuming each
// queued job becomes roughly one batch served by Workers parallel workers at
// the median compute time since the last stats reset. depth is len(e.jobs),
// which is exact: work a worker has not yet started waits nowhere else.
// Clamped to [50ms, 5s] so an empty histogram or a pathological p50 still
// yields a sane hint.
func (e *engine) retryAfter(depth int) time.Duration {
	per := 25 * time.Millisecond
	if p50 := e.stats.computeP50(); p50 > 0 {
		per = p50
	}
	workers := e.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	d := time.Duration(float64(depth+1) / float64(workers) * float64(per))
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// snapshot renders the engine's serving counters as EngineStats.
func (e *engine) snapshot() EngineStats {
	return e.stats.snapshot(len(e.jobs), e.brownoutActive(), e.memo.entries())
}

// brownoutActive reports whether the degradation tier is currently engaged,
// without folding in a queue-depth observation — the /readyz and /v1/models
// view of the state machine.
func (e *engine) brownoutActive() bool { return e.brown.active() }

// worker is one inference goroutine. It blocks on the queue for one job,
// forms a batch around it from whatever else is already waiting, and runs it —
// so an idle pool answers a lone request at once, and only while every worker
// is busy does the queue accumulate, to be taken whole by the next one free.
// Each worker owns a fresh tensor.Workspace for its lifetime, rewound before
// every model call, so an in-process model reuses the worker's arena instead
// of allocating its temporaries and steady-state serving is allocation-free
// outside request plumbing. The arena keeps the size the worker's batches
// grew it to: for an SFT encoder, one fixed-size group of sentences plus a
// [MaxBatch, dModel] output, since its forward runs a batch a group at a
// time; for an ICL decoder, its largest chunk. It is never drawn from the
// workspace pool, which keeps the arena its last user grew, so the worker of
// a remote model, which never touches its arena, holds an empty one.
func (e *engine) worker() {
	defer e.wg.Done()
	w := &batchWorker{e: e, ws: tensor.NewWorkspace()}
	for job := range e.jobs {
		w.runBatch(e.fill(job))
	}
}

// fill returns job plus the jobs queued behind it, in FIFO order, taken
// without blocking until the batch holds MaxBatch sentences. The job that
// crosses the cap is kept; runBatch chunks it. It never waits: with a worker
// free to run them, queued jobs gain nothing from company that has not
// arrived yet.
func (e *engine) fill(job *detectJob) []*detectJob {
	batch := []*detectJob{job}
	for n := len(job.sentences); n < e.cfg.MaxBatch; {
		select {
		case next, ok := <-e.jobs:
			if !ok {
				return batch
			}
			batch = append(batch, next)
			n += len(next.sentences)
		default:
			return batch
		}
	}
	return batch
}

// batchWorker is one worker goroutine's state: the engine it serves and the
// scratch arena it owns. The workspace is a field, not a parameter, by
// design: reprolint's hotalloc contract is that a function *taking* a
// *tensor.Workspace is a zero-allocation kernel, while a component *owning*
// one is an orchestrator whose per-batch bookkeeping (job fan-out copies,
// dedup maps) amortizes across the whole coalesced batch.
type batchWorker struct {
	e  *engine
	ws *tensor.Workspace
}

// runBatch answers the coalesced jobs and hands each a private copy of its
// results, in input order. Copying (rather than sub-slicing one shared
// backing array) keeps jobs from aliasing each other's memory once their
// waiters take ownership. Jobs whose caller already cancelled, or that
// outstayed MaxQueueWait, are dropped first — their sentences never reach
// the model. The live sentences then pass four steps, each answering what
// it can so that less reaches the next:
//
//  1. dedup: identical strings are answered once (production log streams
//     repeat lines verbatim: a stuck job re-emitting one line, fleets of
//     identical workers);
//  2. the cascade gate, when armed, short-circuits each distinct string in
//     its confident band to the gate's verdict;
//  3. the token memo, when the model is in-process: of the strings the
//     gate passed, those that tokenize alike are answered once, and a token
//     sequence an earlier batch answered is answered from the memo;
//  4. the model call, in MaxBatch chunks, for what is left; the memo keeps
//     its answers.
//
// Each step is a pure function of what it keys on — the string, the
// string, the token sequence — so every fan-back is exact, and a line's
// bits do not depend on the batch it rode in. The memo comes after the gate
// because the gate is not a function of the tokens (memo.go). A chunk the
// model fails fails every live job of the batch with its error.
func (w *batchWorker) runBatch(batch []*detectJob) {
	e := w.e
	started := time.Now()
	live := make([]*detectJob, 0, len(batch))
	total := 0
	for _, j := range batch {
		if j.ctx.Err() != nil {
			// Deadline enforcement at dequeue: a request whose deadline (or
			// caller) died while it sat queued is dropped before compute —
			// the model never runs for a client that has already given up.
			j.err = j.ctx.Err()
			if errors.Is(j.err, context.DeadlineExceeded) {
				e.stats.expiredRequest()
			}
			close(j.done) // waiter already gone; unblock any racing reader
			continue
		}
		if mw := e.cfg.MaxQueueWait; mw > 0 && started.Sub(j.enqueued) > mw {
			// Queue-wait budget: the job outstayed its queue allowance, so the
			// answer would arrive too stale to be worth the compute. Shed it
			// with the same 429 contract as admission control.
			j.err = &OverloadedError{RetryAfter: e.retryAfter(len(e.jobs))}
			e.stats.shedRequest()
			close(j.done)
			continue
		}
		live = append(live, j)
		total += len(j.sentences)
	}
	all := make([]string, 0, total)
	for _, j := range live {
		all = append(all, j.sentences...)
	}
	// Dedup before inference: uniq holds the distinct sentences in first-seen
	// order, remap[i] is sentence i's index into uniq's results.
	uniq := all
	var remap []int
	if total > 1 {
		seen := make(map[string]int, total)
		uniq = make([]string, 0, total)
		remap = make([]int, total)
		for i, s := range all {
			if u, dup := seen[s]; dup {
				remap[i] = u
				continue
			}
			seen[s] = len(uniq)
			remap[i] = len(uniq)
			uniq = append(uniq, s)
		}
		if len(uniq) == total {
			remap = nil // nothing repeated; skip the fan-out below
		}
	}
	// Cascade pre-filter after dedup: the stage-1 gate scores each unique
	// sentence and short-circuits the confident band to a verdict in place;
	// only the uncertain band (run/runIdx) reaches the transformer, and its
	// results fan back into gated by exact index — order-preserving, like the
	// dedup remap below.
	run := uniq
	var gated []Result
	var runIdx []int
	if g := e.gate.Load(); g != nil && len(uniq) > 0 {
		gated = make([]Result, len(uniq))
		run = make([]string, 0, len(uniq))
		runIdx = make([]int, 0, len(uniq))
		for i, s := range uniq {
			score, parsed := g.ScoreSentence(s)
			if parsed {
				switch g.Decide(score) {
				case cascade.ShortNormal:
					gated[i] = Result{Label: 0, Score: g.Prob(score)}
					continue
				case cascade.ShortAbnormal:
					gated[i] = Result{Label: 1, Score: g.Prob(score)}
					continue
				}
			}
			run = append(run, s)
			runIdx = append(runIdx, i)
		}
		e.stats.cascadeGated(len(uniq), len(uniq)-len(run))
	}
	results, memoHits, err := w.model(run)
	if err != nil {
		// A model that refused the batch shed its requests, as admission
		// control does: count them where /v1/models and /metrics look.
		shed := errors.As(err, new(*OverloadedError))
		for _, j := range live {
			j.err = err
			if shed {
				e.stats.shedRequest()
			}
			close(j.done)
		}
		return
	}
	if gated != nil {
		for k, i := range runIdx {
			gated[i] = results[k]
		}
		results = gated
	}
	if len(live) > 0 {
		e.stats.ranBatch(live, started, total-len(uniq), memoHits)
	}
	if remap != nil {
		expanded := make([]Result, total)
		for i, u := range remap {
			expanded[i] = results[u]
		}
		results = expanded
	}
	off := 0
	for _, j := range live {
		n := len(j.sentences)
		j.results = append(make([]Result, 0, n), results[off:off+n]...)
		off += n
		close(j.done)
	}
}

// model answers run, the distinct sentences the gate passed, in input order.
// Without a memo it is the model call. With one, run is collapsed by token
// sequence, the memo answers the sequences it holds, and only the rest go to
// the model, whose answers the memo then keeps; memoHits counts the
// sentences of run answered without the model.
func (w *batchWorker) model(run []string) (results []Result, memoHits int, err error) {
	memo := w.e.memo
	if memo == nil || len(run) == 0 {
		results, err = w.infer(run)
		return results, 0, err
	}
	// keys[u] is the u-th distinct token sequence of run and rep[u] its
	// first sentence; owner[i] is sentence i's u.
	owner := make([]int, len(run))
	first := make(map[string]int, len(run))
	keys := make([]string, 0, len(run))
	rep := make([]string, 0, len(run))
	var buf []byte
	for i, s := range run {
		buf = appendMemoKey(buf[:0], s)
		u, seen := first[string(buf)]
		if !seen {
			u = len(keys)
			k := string(buf)
			first[k] = u
			keys = append(keys, k)
			rep = append(rep, s)
		}
		owner[i] = u
	}
	answers := make([]Result, len(keys))
	miss := memo.lookup(keys, answers)
	ask := make([]string, len(miss))
	for m, u := range miss {
		ask[m] = rep[u]
	}
	out, err := w.infer(ask)
	if err != nil {
		return nil, 0, err
	}
	for m, u := range miss {
		answers[u] = out[m]
	}
	memo.insert(keys, answers, miss)
	results = make([]Result, len(run))
	for i, u := range owner {
		results[i] = answers[u]
	}
	return results, len(run) - len(miss), nil
}

// infer runs sentences through the model in MaxBatch chunks, each on the
// worker's rewound arena, which bounds the arena to one chunk's scratch.
func (w *batchWorker) infer(sentences []string) ([]Result, error) {
	e := w.e
	results := make([]Result, 0, len(sentences))
	for lo := 0; lo < len(sentences); lo += e.cfg.MaxBatch {
		w.ws.Reset()
		out, err := e.model.Detect(sentences[lo:min(lo+e.cfg.MaxBatch, len(sentences))], w.ws)
		if err != nil {
			return nil, err
		}
		results = append(results, out...)
	}
	return results, nil
}
