package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/cascade"
	"repro/internal/tensor"
)

// ErrServerClosed is returned by Detect calls after the serving engine (or
// the registry/server that owns it) has been closed.
var ErrServerClosed = errors.New("core: server closed")

// detectJob is one coalescable unit of work: the sentences of a single HTTP
// request, programmatic Detect call or monitor chunk, and the slot their
// results land in. ctx is the caller's context: a job whose caller has gone
// away by the time its batch runs is skipped instead of computed for nobody.
type detectJob struct {
	ctx       context.Context
	sentences []string
	enqueued  time.Time // when the job entered the queue (stage-latency stats)
	results   []Result
	degraded  bool  // the brownout fallback answered, not the primary model
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

// engine is the inference machinery behind one served detector: a job queue
// and a pool of workers that form their own batches from it and own tensor
// workspaces. It is a free-standing unit so a Registry can run one engine per
// model and swap engines atomically without touching the HTTP layer.
//
// Lifecycle: newEngine starts the goroutines; Close drains queued jobs, waits
// for in-flight batches to finish, and releases the workers. After Close,
// submit fails with ErrServerClosed — callers holding a stale engine (one
// swapped out of a registry) re-fetch and retry, so a hot-swap drops no
// requests.
type engine struct {
	det   Detector
	cfg   BatchConfig
	stats *statsRecorder // owned by the registry slot (or the monitor run); survives swaps
	fb    *fallbackSlot  // owned by the registry slot; may hold no detector
	gate  *cascadeSlot   // owned by the registry slot; may hold no gate
	brown brownout
	jobs  chan *detectJob // the whole backlog: nothing waits anywhere else

	mu     sync.RWMutex // guards closed vs. enqueue
	closed bool
	wg     sync.WaitGroup
}

// newEngine starts the worker pool for det. cfg must already be filled. fb
// may be nil (no brownout tier); gate may be nil (no cascade first stage).
func newEngine(det Detector, cfg BatchConfig, stats *statsRecorder, fb *fallbackSlot, gate *cascadeSlot) *engine {
	if fb == nil {
		fb = &fallbackSlot{}
	}
	if gate == nil {
		gate = &cascadeSlot{}
	}
	e := &engine{
		det:   det,
		cfg:   cfg,
		stats: stats,
		fb:    fb,
		gate:  gate,
		brown: brownout{
			high: cfg.BrownoutDepth,
			low:  cfg.BrownoutRecover,
			hold: cfg.BrownoutHold,
		},
		jobs: make(chan *detectJob, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close drains queued requests, stops the inference workers, and fails
// subsequent submit calls with ErrServerClosed. It blocks until every
// in-flight batch has completed — the drain guarantee Registry.Swap relies on
// — and is idempotent.
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
// Overload handling happens here, before any work is queued. When the slot
// holds a brownout fallback and sustained saturation has engaged it, the
// request is answered by the cheap tier immediately (an already-done job
// marked degraded) without touching the queue. Otherwise, if the queue already
// holds ShedQueueDepth jobs, the request is shed with an OverloadedError
// carrying a Retry-After estimate — the 429 path — rather than deepening a
// backlog the workers cannot drain.
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
	if fb := e.fb.load(); fb != nil && e.brown.observe(depth, time.Now()) {
		j.results, j.degraded = fb.DetectBatch(sentences), true
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
		return nil, ErrServerClosed
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
// the recent median compute time. depth is len(e.jobs), which is exact: work
// a worker has not yet started waits nowhere else. Clamped to [50ms, 5s] so a
// cold stats window or a pathological p50 still yields a sane hint.
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

// brownoutActive reports whether the degradation tier is currently engaged,
// without folding in a queue-depth observation — the /readyz and /v1/models
// view of the state machine.
func (e *engine) brownoutActive() bool { return e.brown.active() }

// worker is one inference goroutine. It blocks on the queue for one job,
// forms a batch around it from whatever else is already waiting, and runs it —
// so an idle pool answers a lone request at once, and only while every worker
// is busy does the queue accumulate, to be taken whole by the next one free.
// Each worker owns one tensor.Workspace for its lifetime: when the detector
// supports workspace-threaded batches (BatchWSDetector), every model
// invocation reuses the worker's arena instead of allocating its temporaries,
// so steady-state serving is allocation-free outside request plumbing.
func (e *engine) worker() {
	defer e.wg.Done()
	w := &batchWorker{e: e, ws: tensor.GetWorkspace()}
	defer tensor.PutWorkspace(w.ws)
	wsDet, _ := e.det.(BatchWSDetector)
	for job := range e.jobs {
		w.runBatch(e.fill(job), wsDet)
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

// runBatch classifies the coalesced sentences in MaxBatch-sized chunks and
// hands each job a private copy of its results, preserving input order.
// Copying (rather than sub-slicing one shared backing array) keeps jobs from
// aliasing each other's memory once their waiters take ownership. Jobs whose
// caller already cancelled are skipped entirely — their sentences never
// reach the model. The worker's workspace is reset between chunks, bounding
// the arena to one chunk's scratch.
//
// Identical sentences inside the coalesced batch are classified once:
// production log streams are highly repetitive (a stuck job re-emitting the
// same line, fleets of identical workers), so deduplication converts repeats
// into near-free throughput. Detection is a pure function of the sentence
// text, which makes the fan-back exact, not approximate.
func (w *batchWorker) runBatch(batch []*detectJob, wsDet BatchWSDetector) {
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
	if g := e.gate.load(); g != nil && len(uniq) > 0 {
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
	results := make([]Result, 0, len(run))
	for lo := 0; lo < len(run); lo += e.cfg.MaxBatch {
		hi := min(lo+e.cfg.MaxBatch, len(run))
		if wsDet != nil {
			w.ws.Reset()
			results = append(results, wsDet.DetectBatchWS(run[lo:hi], w.ws)...)
		} else {
			results = append(results, e.det.DetectBatch(run[lo:hi])...)
		}
	}
	if gated != nil {
		for k, i := range runIdx {
			gated[i] = results[k]
		}
		results = gated
	}
	if len(live) > 0 {
		waits := make([]time.Duration, len(live))
		for i, j := range live {
			waits[i] = started.Sub(j.enqueued)
		}
		e.stats.ranBatch(waits, time.Since(started), total-len(uniq))
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
