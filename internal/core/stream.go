package core

import (
	"bufio"
	"container/list"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// TracePolicy decides when a workflow execution as a whole is anomalous from
// its per-job results.
type TracePolicy struct {
	// MinAnomalous is the minimum number of abnormal jobs to flag the trace.
	MinAnomalous int
	// MinFraction is the minimum abnormal fraction to flag the trace; the
	// trace is flagged when either threshold is met.
	MinFraction float64
}

// DefaultTracePolicy flags a trace when ≥5 jobs or ≥10% of its jobs are
// abnormal — tuned to Flow-Bench's contiguous-segment injections.
func DefaultTracePolicy() TracePolicy { return TracePolicy{MinAnomalous: 5, MinFraction: 0.10} }

// flagged applies the policy to a verdict's current counts.
func (p TracePolicy) flagged(v TraceVerdict) bool {
	return v.Anomalous >= p.MinAnomalous || (v.Jobs > 0 && v.Fraction() >= p.MinFraction)
}

// Flagged reports whether a trace with the given job and abnormal counts
// trips the policy — the exported form of the monitor's per-trace decision,
// used by the scenario lab to turn per-line ground truth (or per-line
// predictions) into trace verdicts it can score against the server's.
func (p TracePolicy) Flagged(jobs, anomalous int) bool {
	return p.flagged(TraceVerdict{Jobs: jobs, Anomalous: anomalous})
}

// TraceVerdict aggregates per-job detections for one execution.
type TraceVerdict struct {
	TraceID   int  `json:"trace"`
	Jobs      int  `json:"jobs"`
	Anomalous int  `json:"anomalous"`
	Flagged   bool `json:"flagged"`
}

// Fraction returns the abnormal share of the trace.
func (v TraceVerdict) Fraction() float64 {
	if v.Jobs == 0 {
		return 0
	}
	return float64(v.Anomalous) / float64(v.Jobs)
}

// DetectTraces runs the detector over jobs grouped by trace and applies the
// policy to each execution, returning verdicts ordered by trace id. Each
// trace's jobs are classified in one DetectBatch call, and traces are fanned
// out over a bounded worker pool (DetectBatch is read-only on the model, so
// workers share the detector safely).
func DetectTraces(d Detector, jobs []flowbench.Job, policy TracePolicy) []TraceVerdict {
	byTrace := flowbench.TraceJobs(jobs)
	ids := make([]int, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]TraceVerdict, len(ids))
	verdict := func(i int) {
		trace := byTrace[ids[i]]
		sentences := make([]string, len(trace))
		for k, j := range trace {
			sentences[k] = logparse.Sentence(j)
		}
		v := TraceVerdict{TraceID: ids[i], Jobs: len(trace)}
		for _, r := range d.DetectBatch(sentences) {
			if r.Abnormal() {
				v.Anomalous++
			}
		}
		v.Flagged = policy.flagged(v)
		out[i] = v
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		for i := range ids {
			verdict(i)
		}
		return out
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(ids) {
					return
				}
				verdict(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// Alert is one streaming detection event.
type Alert struct {
	// Line is the raw log line that triggered the alert.
	Line string
	// Job is the parsed record.
	Job flowbench.Job
	// Result is the detection outcome.
	Result Result
}

// AlertSink receives streaming monitor events. Sinks are invoked from a
// single collector goroutine, in input order; a slow sink backpressures the
// monitor, so sinks that fan out (SSE buses, remote hooks) should buffer.
type AlertSink interface {
	// Alert is called for every line classified abnormal.
	Alert(Alert)
	// TraceFlagged is called the first time a trace trips the policy.
	TraceFlagged(TraceVerdict)
}

// SinkFuncs adapts plain functions to AlertSink; nil fields are skipped.
type SinkFuncs struct {
	OnAlert func(Alert)
	OnTrace func(TraceVerdict)
}

// Alert implements AlertSink.
func (s SinkFuncs) Alert(a Alert) {
	if s.OnAlert != nil {
		s.OnAlert(a)
	}
}

// TraceFlagged implements AlertSink.
func (s SinkFuncs) TraceFlagged(v TraceVerdict) {
	if s.OnTrace != nil {
		s.OnTrace(v)
	}
}

// TraceTracker maintains online per-trace verdicts over a stream of job
// observations. State is bounded: at most MaxTraces traces are tracked, with
// least-recently-observed traces evicted first, so memory stays O(active
// traces) on unbounded streams.
//
// Each Observe updates the trace's counts and re-applies the policy, so at
// any instant Verdicts() equals what DetectTraces would compute over the
// jobs observed so far (given identical per-job results). The flag *event*
// (Observe's second return) latches: it fires once per tracked trace, the
// moment the policy first trips, even if later normal jobs dilute the
// fraction back under threshold. The latch lives with the trace's window
// state: a flagged trace that goes quiet long enough to be evicted and then
// returns starts fresh and may re-fire — the deliberate cost of keeping
// memory bounded on unbounded streams (and arguably a re-alert an operator
// wants for a trace that resumed misbehaving).
//
// All methods are safe for concurrent use.
type TraceTracker struct {
	mu      sync.Mutex
	policy  TracePolicy
	max     int
	order   *list.List // front = most recently observed; back = eviction victim
	states  map[int]*list.Element
	evicted int
}

type traceState struct {
	v       TraceVerdict
	alerted bool
}

// NewTraceTracker returns a tracker applying policy over a window of at most
// maxTraces active traces. A zero policy means DefaultTracePolicy; maxTraces
// <= 0 means 4096.
func NewTraceTracker(policy TracePolicy, maxTraces int) *TraceTracker {
	if policy == (TracePolicy{}) {
		policy = DefaultTracePolicy()
	}
	if maxTraces <= 0 {
		maxTraces = 4096
	}
	return &TraceTracker{
		policy: policy,
		max:    maxTraces,
		order:  list.New(),
		states: make(map[int]*list.Element),
	}
}

// Observe folds one job result into the trace's verdict and returns the
// updated verdict, plus true when this observation newly flagged the trace.
func (t *TraceTracker) Observe(traceID int, abnormal bool) (TraceVerdict, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.states[traceID]
	if !ok {
		if len(t.states) >= t.max {
			victim := t.order.Back()
			t.order.Remove(victim)
			delete(t.states, victim.Value.(*traceState).v.TraceID)
			t.evicted++
		}
		el = t.order.PushFront(&traceState{v: TraceVerdict{TraceID: traceID}})
		t.states[traceID] = el
	} else {
		t.order.MoveToFront(el)
	}
	st := el.Value.(*traceState)
	st.v.Jobs++
	if abnormal {
		st.v.Anomalous++
	}
	st.v.Flagged = t.policy.flagged(st.v)
	newly := st.v.Flagged && !st.alerted
	if newly {
		st.alerted = true
	}
	return st.v, newly
}

// Verdict returns the current verdict for one trace, if still tracked.
func (t *TraceTracker) Verdict(traceID int) (TraceVerdict, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.states[traceID]
	if !ok {
		return TraceVerdict{}, false
	}
	return el.Value.(*traceState).v, true
}

// Verdicts returns the verdicts of all tracked traces, ordered by trace id —
// the online counterpart of DetectTraces' return.
func (t *TraceTracker) Verdicts() []TraceVerdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceVerdict, 0, len(t.states))
	for _, el := range t.states {
		out = append(out, el.Value.(*traceState).v)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].TraceID < out[k].TraceID })
	return out
}

// Len returns the number of actively tracked traces.
func (t *TraceTracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.states)
}

// Evicted returns the cumulative number of traces dropped from the window.
func (t *TraceTracker) Evicted() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Reset drops all tracked traces and their alert latches, returning the
// tracker to its freshly-constructed state (policy and window size are kept).
// After a Reset every trace starts a new window and may flag again — the hook
// replay harnesses use to make repeated ingests of the same stream report
// comparable flag counts instead of latch-suppressed zeros.
func (t *TraceTracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.order.Init()
	t.states = make(map[int]*list.Element)
	t.evicted = 0
}

// MonitorReport summarizes one monitor run.
type MonitorReport struct {
	// Processed counts successfully parsed and classified lines.
	Processed int `json:"processed"`
	// Alerts counts lines classified abnormal.
	Alerts int `json:"alerts"`
	// Malformed counts unparseable lines skipped (always 0 in strict mode,
	// which aborts instead).
	Malformed int `json:"malformed"`
	// FlaggedTraces counts traces that newly tripped the policy this run.
	FlaggedTraces int `json:"flagged_traces"`
	// ActiveTraces is the tracker's window size after the run.
	ActiveTraces int `json:"active_traces"`
	// EvictedTraces counts traces dropped from the window during the run.
	EvictedTraces int `json:"evicted_traces"`
	// CascadeEvaluated/CascadeShort count lines scored by the stage-1 gate
	// and the subset it short-circuited without the transformer (zero when
	// the run had no gate).
	CascadeEvaluated int `json:"cascade_evaluated,omitempty"`
	CascadeShort     int `json:"cascade_short_circuited,omitempty"`
}

// MonitorConfig tunes the streaming monitor.
type MonitorConfig struct {
	// ChunkSize is the micro-batch size: lines per model invocation
	// (default 32).
	ChunkSize int
	// Workers is the number of concurrent chunk classifiers (default
	// GOMAXPROCS). Chunks are classified in parallel but alerts and trace
	// updates are applied in input order.
	Workers int
	// Strict aborts on the first malformed line (the legacy Monitor
	// behavior); the default skips and counts it.
	Strict bool
	// Policy is the trace-flagging policy (zero value means
	// DefaultTracePolicy). Ignored when Tracker is set.
	Policy TracePolicy
	// MaxTraces bounds the online trace window (default 4096). Ignored when
	// Tracker is set.
	MaxTraces int
	// Tracker, when non-nil, carries trace state across monitor runs (the
	// server shares one tracker across /v1/monitor requests). When nil a
	// fresh tracker is created for the run.
	Tracker *TraceTracker
	// Sinks receive alert and trace-flagged events in input order.
	Sinks []AlertSink
	// Gate, when non-nil, is the calibrated stage-1 cascade
	// (internal/cascade) the run's engine applies to each chunk's unique
	// sentences, as serving does: the confident band short-circuits to a
	// verdict, so only the uncertain band pays encoder cost. The server's
	// ingest ignores it: its chunks meet the gate of the model's own slot.
	Gate *cascade.Gate
}

func (c *MonitorConfig) fill() {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// Policy and MaxTraces zero values are resolved by NewTraceTracker.
}

// monitorFlushDelay bounds how long a partial chunk waits for more lines
// before being classified anyway. Without it a trickling source — a tailed
// log growing a few lines at a time — would hold alerts hostage until
// ChunkSize lines accumulate.
const monitorFlushDelay = 100 * time.Millisecond

// maxLineBytes bounds a single monitor log line; longer lines are treated
// as malformed (skipped in lenient mode) instead of aborting the stream.
const maxLineBytes = 1 << 20

// readLogLine reads one newline-terminated line of at most max bytes. A
// longer line is consumed to its end and reported as tooLong with no
// content. End of input surfaces as ("", false, io.EOF) on the call after
// the last line.
func readLogLine(br *bufio.Reader, max int) (line string, tooLong bool, err error) {
	var buf []byte
	for {
		chunk, isPrefix, rerr := br.ReadLine()
		if len(buf)+len(chunk) > max {
			for isPrefix && rerr == nil {
				_, isPrefix, rerr = br.ReadLine()
			}
			return "", true, rerr
		}
		if buf == nil && !isPrefix {
			// Common case: the whole line fit in the reader's buffer — one
			// string copy, no intermediate accumulation buffer.
			return string(chunk), false, rerr
		}
		buf = append(buf, chunk...)
		if rerr != nil {
			return string(buf), false, rerr
		}
		if !isPrefix {
			return string(buf), false, nil
		}
	}
}

// monitorChunk is one micro-batch moving through the pipeline: its lines read,
// parsed and rendered, and, once submitted, the engine job classifying them.
type monitorChunk struct {
	lines     []string
	jobs      []flowbench.Job
	sentences []string
	job       *detectJob
}

// Monitor reads raw key=value log lines (logparse.LogLine format) from r,
// classifies them in micro-batches, and invokes onAlert for every line
// detected as abnormal. Malformed lines are skipped and counted in the
// report; use MonitorWith with Strict for the legacy abort-on-first-error
// behavior.
//
// This is the paper's real-time detection loop (Section IV-C) in library
// form: the workflow management system appends to a log, Monitor tails it.
func Monitor(d Detector, r io.Reader, onAlert func(Alert)) (MonitorReport, error) {
	//lint:ignore ctxflow public no-context convenience API; the paper's library-form loop, callers needing cancellation use MonitorWith
	return MonitorWith(context.Background(), d, r, MonitorConfig{
		Sinks: []AlertSink{SinkFuncs{OnAlert: onAlert}},
	})
}

// MonitorWith is the fully configurable streaming monitor: the monitor loop
// over a serving engine of its own (Workers workers, ChunkSize-sentence
// batches of d) that lives for the run. Inference is therefore the serving
// path's, not a copy of it: repeated lines in a chunk reach the model once,
// cfg.Gate gates as a served model's cascade does, and the report's cascade
// counters are that engine's, counting unique lines as /v1/models does.
//
// ctx cancellation stops the run between lines; the partial report and
// ctx.Err() are returned. In strict mode the first malformed line aborts
// with an error naming its line number; otherwise malformed lines are
// skipped and counted.
func MonitorWith(ctx context.Context, d Detector, r io.Reader, cfg MonitorConfig) (MonitorReport, error) {
	if err := ctx.Err(); err != nil {
		return MonitorReport{}, err
	}
	cfg.fill()
	stats := &statsRecorder{}
	// QueueDepth Workers: with the loop's own in-flight bound that is one
	// chunk running and one waiting per worker, and the reader blocks beyond.
	eng := newEngine(d, BatchConfig{MaxBatch: cfg.ChunkSize, Workers: cfg.Workers, QueueDepth: cfg.Workers},
		stats, nil, &cascadeSlot{g: cfg.Gate})
	defer eng.Close()
	report, err := monitor(ctx, eng.submit, r, cfg)
	st := stats.snapshot(0, false)
	report.CascadeEvaluated, report.CascadeShort = int(st.CascadeEvaluated), int(st.CascadeShort)
	return report, err
}

// monitor is the one monitor loop, under MonitorWith and the server's ingest
// alike: lines are read, parsed and grouped into cfg.ChunkSize micro-batches;
// each chunk goes to submit — an engine's front door — as one job; and the
// collector waits on the jobs in submission order, so alerts, tracker updates
// and trace-flagged events happen in input order however the engine's workers
// were scheduled. cfg must already be filled.
//
// A chunk the engine refuses or fails (shed, closed, deadline) ends the run
// with that error; its lines and those of every later chunk are not counted
// as Processed — never as that many confident "normal" classifications.
func monitor(ctx context.Context, submit func(context.Context, []string) (*detectJob, error), r io.Reader, cfg MonitorConfig) (MonitorReport, error) {
	tracker := cfg.Tracker
	if tracker == nil {
		tracker = NewTraceTracker(cfg.Policy, cfg.MaxTraces)
	}
	evictedBefore := tracker.Evicted()
	// Chunks still queued when the run fails are skipped by the engine rather
	// than computed: cancelling ctx is how the collector tells it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The collector owns the ordered side effects. inflight is FIFO, so it
	// meets chunks in input order; its capacity lets Workers chunks be in the
	// engine while the one ahead of them is folded, and no more.
	var report MonitorReport
	var chunkErr error
	inflight := make(chan *monitorChunk, cfg.Workers)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for c := range inflight {
			if chunkErr == nil {
				// Cancelled runs fold nothing further, even a chunk already
				// classified: no sink fires for a caller that has left.
				chunkErr = ctx.Err()
			}
			if chunkErr != nil {
				continue // the run is over; drain what was submitted
			}
			results, _, err := c.job.wait()
			if err != nil {
				chunkErr = err
				cancel()
				continue
			}
			for i, res := range results {
				report.Processed++
				job := c.jobs[i]
				if res.Abnormal() {
					report.Alerts++
					a := Alert{Line: c.lines[i], Job: job, Result: res}
					for _, s := range cfg.Sinks {
						s.Alert(a)
					}
				}
				v, newly := tracker.Observe(job.TraceID, res.Abnormal())
				if newly {
					report.FlaggedTraces++
					for _, s := range cfg.Sinks {
						s.TraceFlagged(v)
					}
				}
			}
		}
	}()

	// The line reader runs in its own goroutine so the chunker below can
	// flush a partial chunk on a timer while the underlying Read blocks —
	// a tailed log trickling in below ChunkSize lines still alerts within
	// monitorFlushDelay. The reader leaves its terminal IO error in ioErr
	// before it closes lines, and gives up on readerQuit.
	type lineEvent struct {
		text    string
		no      int
		tooLong bool
	}
	lines := make(chan lineEvent, cfg.ChunkSize)
	var ioErr error
	readerQuit := make(chan struct{})
	go func() {
		defer close(lines)
		br := bufio.NewReaderSize(r, 64*1024)
		lineNo := 0
		for {
			line, tooLong, rerr := readLogLine(br, maxLineBytes)
			if line != "" || tooLong {
				lineNo++
				select {
				case lines <- lineEvent{text: line, no: lineNo, tooLong: tooLong}:
				case <-readerQuit:
					return
				}
			} else if rerr == nil {
				lineNo++ // blank line: counted, not forwarded
			}
			if rerr != nil {
				if rerr != io.EOF {
					ioErr = rerr
				}
				return
			}
		}
	}()

	var (
		readErr   error
		malformed int
	)
	cur := &monitorChunk{}
	// flush submits the chunk being built, if any, and queues it for the
	// collector. A chunk the engine refuses is dropped, not retried.
	flush := func() error {
		if len(cur.jobs) == 0 {
			return nil
		}
		c := cur
		cur = &monitorChunk{}
		var err error
		if c.job, err = submit(ctx, c.sentences); err == nil {
			inflight <- c
		}
		return err
	}
	// Armed by a chunk's first line; a tick that finds the chunk already
	// flushed for size is a no-op. Reset needs no drain first: under go.mod's
	// go line timer channels are synchronous, so no earlier tick outlives it.
	flushTimer := time.NewTimer(monitorFlushDelay)
	defer flushTimer.Stop()
loop:
	for {
		select {
		case <-ctx.Done():
			readErr = ctx.Err()
			break loop
		case <-flushTimer.C:
			if readErr = flush(); readErr != nil {
				break loop
			}
		case ev, ok := <-lines:
			if !ok {
				readErr = ioErr
				break loop
			}
			if ev.tooLong {
				// Unlike a Scanner (which aborts the whole stream on an
				// over-long line), the reader skips it so one garbage
				// blob can't kill a lenient tail.
				if cfg.Strict {
					readErr = fmt.Errorf("core: line %d: line exceeds %d bytes", ev.no, maxLineBytes)
					break loop
				}
				malformed++
				continue
			}
			job, perr := logparse.ParseLogLine(ev.text)
			if perr != nil {
				if cfg.Strict {
					readErr = fmt.Errorf("core: line %d: %w", ev.no, perr)
					break loop
				}
				malformed++
				continue
			}
			cur.lines = append(cur.lines, ev.text)
			cur.jobs = append(cur.jobs, job)
			cur.sentences = append(cur.sentences, logparse.Sentence(job))
			if len(cur.jobs) == cfg.ChunkSize {
				if readErr = flush(); readErr != nil {
					break loop
				}
			} else if len(cur.jobs) == 1 {
				flushTimer.Reset(monitorFlushDelay)
			}
		}
	}
	close(readerQuit)
	if ctx.Err() == nil {
		// Classify what was read (a strict abort still reports the lines
		// before the bad one) — but not after cancellation, where running
		// a model forward and firing sinks for a caller that already left
		// would contradict the cancellation contract.
		if err := flush(); readErr == nil {
			readErr = err
		}
	}
	close(inflight)
	<-collectorDone
	if chunkErr != nil {
		readErr = chunkErr // the chunker only saw the collector's cancel
	}

	report.Malformed = malformed
	report.ActiveTraces = tracker.Len()
	report.EvictedTraces = tracker.Evicted() - evictedBefore
	return report, readErr
}
