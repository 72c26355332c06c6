package core

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/tensor"
)

// servedModel starts a server over m under cfg, its cascade gate installed
// (nil: none) as anomalyd installs it. It closes when the test ends.
func servedModel(t *testing.T, m Model, cfg BatchConfig, gate *cascade.Gate) *Server {
	t.Helper()
	s := NewServerWith(m, cfg)
	t.Cleanup(s.Close)
	if err := s.Registry().SetCascade("", gate); err != nil {
		t.Fatal(err)
	}
	return s
}

// monitorServed streams r through MonitorIngest of servedModel(m, cfg, nil)
// and returns the run's report and error with the model's trace tracker.
func monitorServed(t *testing.T, ctx context.Context, m Model, cfg BatchConfig, r io.Reader, strict bool, sinks ...AlertSink) (MonitorReport, *traceTracker, error) {
	t.Helper()
	s := servedModel(t, m, cfg, nil)
	report, err := s.MonitorIngest(ctx, r, strict, sinks...)
	e, lerr := s.reg.lookup("")
	if lerr != nil {
		t.Fatal(lerr)
	}
	return report, e.tracker, err
}

// trackedVerdicts returns the verdicts of all traces t still tracks, ordered
// by trace id: the online counterpart of DetectTraces' return.
func trackedVerdicts(t *traceTracker) []TraceVerdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceVerdict, 0, len(t.states))
	for _, el := range t.states {
		out = append(out, el.Value.(*traceState).v)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].TraceID < out[k].TraceID })
	return out
}

// hashDetector is a deterministic stub: the label depends only on the
// sentence text, so the batched, workspace-threaded, and per-sentence paths
// agree trivially and plumbing tests need no trained model.
type hashDetector struct{}

func hashResult(s string) Result {
	h := fnv.New32a()
	h.Write([]byte(s))
	if h.Sum32()%3 == 0 {
		return Result{Label: 1, Score: 0.9}
	}
	return Result{Label: 0, Score: 0.1}
}

// resultsOf answers each sentence with f.
func resultsOf(ss []string, f func(string) Result) []Result {
	out := make([]Result, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func (hashDetector) Detect(ss []string, _ *tensor.Workspace) ([]Result, error) {
	return resultsOf(ss, hashResult), nil
}
func (hashDetector) DetectBatch(ss []string) []Result { return resultsOf(ss, hashResult) }
func (hashDetector) DetectSentence(s string) Result   { return hashResult(s) }
func (hashDetector) Approach() Approach               { return SFT }
func (hashDetector) Precision() Precision             { return PrecisionFP32 }

// streamJob builds a synthetic but parseable job. abnormal jobs carry the
// marker value 666 that markDetector keys on.
func streamJob(trace, node int, abnormal bool) flowbench.Job {
	j := flowbench.Job{Workflow: flowbench.Genome, TraceID: trace, NodeIndex: node, TaskType: "t"}
	for i := range j.Features {
		j.Features[i] = float64(10 + i)
	}
	if abnormal {
		j.Features[2] = 666
	}
	return j
}

// markDetector flags exactly the jobs streamJob marked abnormal.
type markDetector struct{ hashDetector }

func markResult(s string) Result {
	if strings.Contains(s, " is 666.0") {
		return Result{Label: 1, Score: 0.99}
	}
	return Result{Label: 0, Score: 0.01}
}

func (markDetector) Detect(ss []string, _ *tensor.Workspace) ([]Result, error) {
	return resultsOf(ss, markResult), nil
}
func (markDetector) DetectBatch(ss []string) []Result { return resultsOf(ss, markResult) }
func (markDetector) DetectSentence(s string) Result   { return markResult(s) }

func logOf(jobs []flowbench.Job) string {
	var sb strings.Builder
	for _, j := range jobs {
		sb.WriteString(logparse.LogLine(j))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestMonitorSkipsMalformed checks the lenient default: garbage lines are
// counted, not fatal, and every well-formed line is still classified.
func TestMonitorSkipsMalformed(t *testing.T) {
	jobs := []flowbench.Job{
		streamJob(1, 0, false), streamJob(1, 1, true), streamJob(2, 0, false),
	}
	var buf bytes.Buffer
	buf.WriteString("not_a_log_line\n")
	buf.WriteString(logparse.LogLine(jobs[0]) + "\n")
	buf.WriteString("trace=banana\n")
	buf.WriteString("\n") // blank lines are neither processed nor malformed
	buf.WriteString(logparse.LogLine(jobs[1]) + "\n")
	buf.WriteString(logparse.LogLine(jobs[2]) + "\n")

	var alerts []Alert
	report, _, err := monitorServed(t, context.Background(), markDetector{}, BatchConfig{MaxBatch: 2}, &buf, false,
		SinkFuncs{OnAlert: func(a Alert) { alerts = append(alerts, a) }})
	if err != nil {
		t.Fatal(err)
	}
	if report.Processed != 3 || report.Malformed != 2 {
		t.Fatalf("report = %+v, want 3 processed / 2 malformed", report)
	}
	if report.Alerts != 1 || len(alerts) != 1 {
		t.Fatalf("alerts = %d (%d delivered), want 1", report.Alerts, len(alerts))
	}
	if alerts[0].Job.TraceID != 1 || alerts[0].Job.NodeIndex != 1 {
		t.Fatalf("alert for wrong job: %+v", alerts[0].Job)
	}
}

// TestMonitorStrictAbortsWithLineNumber pins the legacy strict behavior:
// the first malformed line aborts with its line number in the error.
func TestMonitorStrictAbortsWithLineNumber(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(logparse.LogLine(streamJob(1, 0, false)) + "\n")
	buf.WriteString("garbage\n")
	buf.WriteString(logparse.LogLine(streamJob(1, 1, false)) + "\n")
	report, _, err := monitorServed(t, context.Background(), markDetector{}, BatchConfig{}, &buf, true)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2", err)
	}
	if report.Malformed != 0 {
		t.Fatalf("strict run counted %d malformed", report.Malformed)
	}
	if report.Processed > 1 {
		t.Fatalf("processed %d lines past the abort", report.Processed)
	}
}

// TestMonitorSkipsOversizedLine checks a line over the per-line byte cap is
// treated as malformed — skipped in lenient mode, aborted with its line
// number in strict mode — instead of killing the whole stream the way a
// bufio.Scanner would.
func TestMonitorSkipsOversizedLine(t *testing.T) {
	huge := strings.Repeat("x", 2<<20)
	var buf bytes.Buffer
	buf.WriteString(logparse.LogLine(streamJob(1, 0, false)) + "\n")
	buf.WriteString(huge + "\n")
	buf.WriteString(logparse.LogLine(streamJob(1, 1, true)) + "\n")

	report, _, err := monitorServed(t, context.Background(), markDetector{}, BatchConfig{}, bytes.NewReader(buf.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.Processed != 2 || report.Malformed != 1 || report.Alerts != 1 {
		t.Fatalf("report = %+v, want 2 processed / 1 malformed / 1 alert", report)
	}

	_, _, err = monitorServed(t, context.Background(), markDetector{}, BatchConfig{}, bytes.NewReader(buf.Bytes()), true)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict err = %v, want line 2", err)
	}
}

// TestMonitorOnlineTraceEquivalence is the core online-vs-batch invariant:
// after a monitor run, the tracker's verdicts must exactly equal what
// DetectTraces computes on the same jobs — for every chunk size and worker
// count, including chunks that straddle trace boundaries.
func TestMonitorOnlineTraceEquivalence(t *testing.T) {
	ds := flowbench.Generate(flowbench.Genome, 3).Subsample(0, 0, 120, 4)
	jobs := ds.Test
	want := DetectTraces(hashDetector{}, jobs, DefaultTracePolicy())

	for _, cfg := range []BatchConfig{
		{MaxBatch: 1, Workers: 1},
		{MaxBatch: 7, Workers: 1},
		{MaxBatch: 7, Workers: 4},
		{MaxBatch: 64, Workers: 2},
	} {
		report, tracker, err := monitorServed(t, context.Background(), hashDetector{}, cfg, strings.NewReader(logOf(jobs)), false)
		if err != nil {
			t.Fatal(err)
		}
		if report.Processed != len(jobs) {
			t.Fatalf("chunk=%d workers=%d: processed %d, want %d", cfg.MaxBatch, cfg.Workers, report.Processed, len(jobs))
		}
		got := trackedVerdicts(tracker)
		if len(got) != len(want) {
			t.Fatalf("chunk=%d workers=%d: %d verdicts, want %d", cfg.MaxBatch, cfg.Workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d workers=%d: verdict %d = %+v, want %+v",
					cfg.MaxBatch, cfg.Workers, i, got[i], want[i])
			}
		}
	}
}

// TestMonitorOnlineTraceEquivalenceTrained repeats the invariant with the
// real fine-tuned detector: the chunked workspace-threaded monitor path and
// DetectTraces' per-trace DetectBatch path must assign identical labels, so
// the verdicts match bitwise.
func TestMonitorOnlineTraceEquivalenceTrained(t *testing.T) {
	det, ds := detector(t)
	jobs := ds.Test[:80]
	want := DetectTraces(det, jobs, DefaultTracePolicy())

	// 13-line chunks: deliberately offset from trace boundaries.
	_, tracker, err := monitorServed(t, context.Background(), det, BatchConfig{MaxBatch: 13}, strings.NewReader(logOf(jobs)), false)
	if err != nil {
		t.Fatal(err)
	}
	got := trackedVerdicts(tracker)
	if len(got) != len(want) {
		t.Fatalf("%d online verdicts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d: online %+v != batch %+v", i, got[i], want[i])
		}
	}
}

// TestMonitorAlertOrder checks alerts arrive in input order even with many
// workers racing over chunks.
func TestMonitorAlertOrder(t *testing.T) {
	var jobs []flowbench.Job
	for i := 0; i < 97; i++ {
		jobs = append(jobs, streamJob(i/10, i%10, true)) // every line alerts
	}
	var got []int
	_, _, err := monitorServed(t, context.Background(), markDetector{}, BatchConfig{MaxBatch: 3, Workers: 8}, strings.NewReader(logOf(jobs)), false,
		SinkFuncs{OnAlert: func(a Alert) {
			got = append(got, a.Job.TraceID*10+a.Job.NodeIndex)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("%d alerts, want %d", len(got), len(jobs))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("alert %d out of order: got job %d", i, v)
		}
	}
}

// TestTraceTrackerEviction bounds the window: with maxTraces 4 and 10
// distinct traces, only 4 states survive and the rest are counted evicted.
func TestTraceTrackerEviction(t *testing.T) {
	tr := newTraceTracker(DefaultTracePolicy(), 4)
	for trace := 0; trace < 10; trace++ {
		for n := 0; n < 3; n++ {
			tr.observe(trace, false)
		}
	}
	if tr.size() != 4 {
		t.Fatalf("window holds %d traces, want 4", tr.size())
	}
	if tr.evictions() != 6 {
		t.Fatalf("evicted = %d, want 6", tr.evictions())
	}
	// The survivors are the most recently observed traces 6..9.
	for trace := 6; trace < 10; trace++ {
		if _, ok := tr.verdict(trace); !ok {
			t.Fatalf("trace %d missing from window", trace)
		}
	}
	// Re-observing keeps a trace alive: touch 6, add a new trace, 7 dies first.
	tr.observe(6, false)
	tr.observe(100, false)
	if _, ok := tr.verdict(6); !ok {
		t.Fatal("recently touched trace 6 was evicted")
	}
	if _, ok := tr.verdict(7); ok {
		t.Fatal("LRU trace 7 survived past the window")
	}
}

// TestTraceTrackerFlagOnce checks the flag event fires exactly once, the
// moment the policy trips, while the verdict keeps tracking current counts.
func TestTraceTrackerFlagOnce(t *testing.T) {
	tr := newTraceTracker(TracePolicy{MinAnomalous: 2, MinFraction: 1.5}, 16)
	events := 0
	observe := func(abnormal bool) TraceVerdict {
		v, newly := tr.observe(7, abnormal)
		if newly {
			events++
		}
		return v
	}
	observe(true)
	if v := observe(false); v.Flagged {
		t.Fatalf("flagged too early: %+v", v)
	}
	if events != 0 {
		t.Fatal("event before threshold")
	}
	v := observe(true) // second abnormal: trips MinAnomalous=2
	if !v.Flagged || events != 1 {
		t.Fatalf("trip: verdict %+v, events %d", v, events)
	}
	observe(true) // stays flagged, no second event
	if events != 1 {
		t.Fatalf("flag event fired %d times", events)
	}
}

// TestTraceTrackerReset checks reset drops windows, latches, and the eviction
// count, so a replayed stream flags again — what the load lab's paired
// cascade replays rely on for comparable flagged-trace counts.
func TestTraceTrackerReset(t *testing.T) {
	tr := newTraceTracker(TracePolicy{MinAnomalous: 1, MinFraction: 1.5}, 2)
	tr.observe(1, true)
	tr.observe(2, false)
	tr.observe(3, false) // evicts trace 1
	if tr.evictions() != 1 {
		t.Fatalf("evicted = %d, want 1", tr.evictions())
	}
	tr.reset()
	if tr.size() != 0 || tr.evictions() != 0 {
		t.Fatalf("after Reset: len %d, evicted %d, want 0/0", tr.size(), tr.evictions())
	}
	if _, ok := tr.verdict(2); ok {
		t.Fatal("trace survived Reset")
	}
	if _, newly := tr.observe(1, true); !newly {
		t.Fatal("latch survived Reset: replayed trace did not re-flag")
	}
}

// interleavedJobs returns the first n lines of a log that slots concurrent
// Flow-Bench executions write: each line comes from a seeded-random live
// execution, and a finished one is replaced by the next of the dataset's
// executions in a seeded order.
func interleavedJobs(n, slots int) []flowbench.Job {
	byTrace := flowbench.TraceJobs(flowbench.Generate(flowbench.Sales, 6).Jobs())
	ids := make([]int, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rng := tensor.NewRNG(6)
	order := rng.Perm(len(ids))
	live := make([][]flowbench.Job, slots)
	out := make([]flowbench.Job, 0, n)
	for next := 0; len(out) < n; {
		i := rng.Intn(slots)
		if len(live[i]) == 0 {
			live[i] = byTrace[ids[order[next]]]
			next++
		}
		out = append(out, live[i][0])
		live[i] = live[i][1:]
	}
	return out
}

// TestTrackerFlagLatchUnderBursty replays the ground truth of interleaved
// executions through a tracker and checks the flag event latches: each
// flagged trace fires exactly once, however its jobs are interleaved, and
// the final flagged set matches the traces' truth under the same policy.
func TestTrackerFlagLatchUnderBursty(t *testing.T) {
	jobs := interleavedJobs(400, 8)
	policy := DefaultTracePolicy()
	tr := newTraceTracker(policy, 0)

	fired := map[int]int{}
	count, anomalous := map[int]int{}, map[int]int{}
	for _, j := range jobs {
		if _, newly := tr.observe(j.TraceID, j.Label == 1); newly {
			fired[j.TraceID]++
		}
		count[j.TraceID]++
		anomalous[j.TraceID] += j.Label
	}
	for id, n := range fired {
		if n != 1 {
			t.Errorf("trace %d flag fired %d times, want latch-once", id, n)
		}
	}
	for id, n := range count {
		if flagged := policy.Flagged(n, anomalous[id]); flagged != (fired[id] == 1) {
			t.Errorf("trace %d: tracker flagged=%v, truth=%v", id, fired[id] == 1, flagged)
		}
	}
	if tr.evictions() != 0 {
		t.Errorf("default-capacity tracker evicted %d traces", tr.evictions())
	}
}

// TestTrackerStateSurvivesRetriedDelivery models a client's retries: a shed
// batch is re-sent, so the monitor path may see some jobs again. The latch
// must not re-fire for a still-tracked trace, and verdict counts stay
// monotone.
func TestTrackerStateSurvivesRetriedDelivery(t *testing.T) {
	tr := newTraceTracker(TracePolicy{MinAnomalous: 3, MinFraction: 1}, 0)
	fires := 0
	observe := func(times int) {
		for k := 0; k < times; k++ {
			if _, newly := tr.observe(7, true); newly {
				fires++
			}
		}
	}
	observe(3) // first delivery trips the policy
	if fires != 1 {
		t.Fatalf("flag fired %d times on first delivery, want 1", fires)
	}
	observe(3) // retried delivery of the same jobs
	if fires != 1 {
		t.Fatalf("retried delivery re-fired the flag (%d fires)", fires)
	}
	v, ok := tr.verdict(7)
	if !ok || v.Jobs != 6 || v.Anomalous != 6 || !v.Flagged {
		t.Fatalf("verdict after retry = %+v", v)
	}
}

// TestTrackerEvictionUnderTraceChurn caps the window well below the
// interleaved log's trace count: evictions must occur, the window must stay
// at capacity, and a flagged trace that is evicted and returns may
// legitimately re-fire (bounded memory trades for re-alerts).
func TestTrackerEvictionUnderTraceChurn(t *testing.T) {
	jobs := interleavedJobs(400, 8)
	traces := map[int]bool{}
	for _, j := range jobs {
		traces[j.TraceID] = true
	}
	if len(traces) < 8 {
		t.Skipf("interleaved log has only %d traces", len(traces))
	}
	cap := 4
	tr := newTraceTracker(DefaultTracePolicy(), cap)
	for _, j := range jobs {
		tr.observe(j.TraceID, j.Label == 1)
	}
	if tr.evictions() == 0 {
		t.Errorf("window of %d over %d traces evicted nothing", cap, len(traces))
	}
	if got := tr.size(); got != cap {
		t.Errorf("window size = %d, want pinned at %d", got, cap)
	}

	// Eviction resets the latch: a returning trace starts fresh and re-fires
	// once it trips the policy again.
	small := newTraceTracker(TracePolicy{MinAnomalous: 1, MinFraction: 1}, 1)
	if _, newly := small.observe(1, true); !newly {
		t.Fatal("first trip did not fire")
	}
	small.observe(2, false) // evicts trace 1
	if small.evictions() != 1 {
		t.Fatalf("evicted = %d, want 1", small.evictions())
	}
	if _, newly := small.observe(1, true); !newly {
		t.Error("returning evicted trace should re-fire its flag")
	}
}

// TestMonitorContextCancel checks a cancelled context stops the run between
// lines with ctx.Err and a partial report rather than draining the whole
// stream.
func TestMonitorContextCancel(t *testing.T) {
	var jobs []flowbench.Job
	for i := 0; i < 500; i++ {
		jobs = append(jobs, streamJob(i, 0, true)) // every line alerts
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The first alert (delivered from the collector while the reader is
	// still feeding) cancels the run mid-stream.
	report, _, err := monitorServed(t, ctx, markDetector{}, BatchConfig{MaxBatch: 4, Workers: 2}, strings.NewReader(logOf(jobs)), false,
		SinkFuncs{OnAlert: func(Alert) { cancel() }})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report.Processed == 0 || report.Processed >= 500 {
		t.Fatalf("processed = %d, want a partial run", report.Processed)
	}

	// Cancelled before the first line: nothing is processed.
	report, _, err = monitorServed(t, ctx, markDetector{}, BatchConfig{MaxBatch: 4}, strings.NewReader(logOf(jobs)), false)
	if err != context.Canceled {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if report.Processed != 0 {
		t.Fatalf("pre-cancelled run processed %d lines", report.Processed)
	}
}

// TestMonitorFlushDelayPartialChunk pins the tail-mode latency contract: a
// trickling source that never fills a chunk still gets its lines classified
// within monitorFlushDelay, while the stream stays open.
func TestMonitorFlushDelayPartialChunk(t *testing.T) {
	pr, pw := io.Pipe()
	alerts := make(chan Alert, 8)
	type result struct {
		report MonitorReport
		err    error
	}
	done := make(chan result, 1)
	s := servedModel(t, markDetector{}, BatchConfig{MaxBatch: 32}, nil)
	go func() {
		report, err := s.MonitorIngest(context.Background(), pr, false, SinkFuncs{OnAlert: func(a Alert) { alerts <- a }})
		done <- result{report, err}
	}()

	// Two lines — far below the 32-line chunk — with the pipe held open.
	if _, err := io.WriteString(pw, logOf([]flowbench.Job{
		streamJob(1, 0, true), streamJob(1, 1, false),
	})); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-alerts:
		if a.Job.NodeIndex != 0 {
			t.Fatalf("alert for wrong job: %+v", a.Job)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partial chunk never flushed while the stream stayed open")
	}
	pw.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.report.Processed != 2 || res.report.Alerts != 1 {
		t.Fatalf("report = %+v", res.report)
	}
}

// TestMonitorDedupsRepeats pins what the library monitor gained from running
// on an engine: a line repeated inside one chunk reaches the model once, while
// the report, the sinks and the tracker still count every line.
func TestMonitorDedupsRepeats(t *testing.T) {
	distinct := []flowbench.Job{streamJob(1, 0, true), streamJob(1, 1, false), streamJob(2, 0, true)}
	distinct[2].Features[0] = 77 // the sentence carries features only, not trace or node
	var jobs []flowbench.Job
	wantAlerts := 0
	for i := 0; i < 12; i++ {
		j := distinct[(i*5)%len(distinct)]
		jobs = append(jobs, j)
		if hashResult(logparse.Sentence(j)).abnormal() {
			wantAlerts++
		}
	}
	det := &dedupDetector{}
	alerts := 0
	report, tracker, err := monitorServed(t, context.Background(), det, BatchConfig{MaxBatch: len(jobs), Workers: 1}, strings.NewReader(logOf(jobs)), false,
		SinkFuncs{OnAlert: func(Alert) { alerts++ }})
	if err != nil {
		t.Fatal(err)
	}
	if seen := det.seen(); len(seen) != len(distinct) {
		t.Fatalf("model classified %d sentences, want the %d distinct ones", len(seen), len(distinct))
	}
	if report.Processed != len(jobs) || report.Alerts != wantAlerts || alerts != wantAlerts {
		t.Fatalf("report = %+v with %d alerts delivered, want %d processed / %d alerts", report, alerts, len(jobs), wantAlerts)
	}
	if v, _ := tracker.verdict(1); v.Jobs != 8 {
		t.Fatalf("tracker counted %d jobs of trace 1, want 8 of the 12 lines", v.Jobs)
	}
}

// TestMonitorChunkErrorEndsRun pins what happens to a chunk the engine will
// not take: the ingest ends with the engine's error, the chunks admitted
// before it are still folded, and the refused chunk's lines are not counted
// as processed. The worker is held on the first chunk, so the queue is in a
// known state when the later chunks arrive.
func TestMonitorChunkErrorEndsRun(t *testing.T) {
	chunk := func(trace int) string {
		return logOf([]flowbench.Job{streamJob(trace, 0, false), streamJob(trace, 1, false)})
	}
	type outcome struct {
		report MonitorReport
		err    error
	}
	// ingest starts a MonitorIngest fed by the returned pipe and returns once
	// its first chunk is inside the model.
	ingest := func(t *testing.T, s *Server, det *gateDetector) (*io.PipeWriter, <-chan outcome) {
		pr, pw := io.Pipe()
		done := make(chan outcome, 1)
		go func() {
			report, err := s.MonitorIngest(context.Background(), pr, false)
			pr.Close() // a writer still feeding the ended run fails instead of hanging
			done <- outcome{report, err}
		}()
		if _, err := io.WriteString(pw, chunk(1)); err != nil {
			t.Fatal(err)
		}
		<-det.entered
		return pw, done
	}

	t.Run("shed", func(t *testing.T) {
		det := newGateDetector()
		s := NewServerWith(det, BatchConfig{MaxBatch: 2, Workers: 1, ShedQueueDepth: 1})
		defer s.Close()
		pw, done := ingest(t, s, det)
		// The second chunk waits behind the held worker, which puts the queue
		// at its budget; the third is refused.
		io.WriteString(pw, chunk(2)+chunk(3))
		waitFor(t, "the third chunk to be shed", func() bool {
			st, _ := s.reg.Stats("")
			return st.Shed == 1
		})
		close(det.release)
		res := <-done
		var oe *OverloadedError
		if !errors.As(res.err, &oe) {
			t.Fatalf("err = %v, want *OverloadedError", res.err)
		}
		if res.report.Processed != 4 {
			t.Fatalf("processed %d lines, want the 4 of the two admitted chunks", res.report.Processed)
		}
	})
	t.Run("registry closed mid-ingest", func(t *testing.T) {
		det := newGateDetector()
		s := NewServerWith(det, BatchConfig{MaxBatch: 2, Workers: 1})
		pw, done := ingest(t, s, det)
		go s.Close() // blocks draining the held chunk; lookups fail from here on
		waitFor(t, "the registry to close", func() bool {
			_, err := s.reg.lookup("")
			return errors.Is(err, errServerClosed)
		})
		io.WriteString(pw, chunk(2))
		close(det.release) // whenever the held chunk finishes, the second finds no registry
		res := <-done
		if !errors.Is(res.err, errServerClosed) {
			t.Fatalf("err = %v, want errServerClosed", res.err)
		}
		if res.report.Processed != 2 {
			t.Fatalf("processed %d lines, want the 2 of the chunk admitted before the close", res.report.Processed)
		}
	})
}
