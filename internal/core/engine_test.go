package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logparse"
	"repro/internal/tensor"
)

// dedupDetector records every batch it is asked to classify and returns
// hashResult per sentence, so tests can assert both what reached the model
// and that fanned-back results stay correct and ordered.
type dedupDetector struct {
	hashDetector
	mu      sync.Mutex
	batches [][]string
}

func (d *dedupDetector) Detect(ss []string, ws *tensor.Workspace) ([]Result, error) {
	d.mu.Lock()
	d.batches = append(d.batches, append([]string(nil), ss...))
	d.mu.Unlock()
	return d.hashDetector.Detect(ss, ws)
}

func (d *dedupDetector) seen() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, b := range d.batches {
		out = append(out, b...)
	}
	return out
}

// TestRunBatchDedupsRepeatedSentences pins the coalescing dedup: repeated
// sentences in one batch reach the model once, and every caller still gets
// the right result in input order.
func TestRunBatchDedupsRepeatedSentences(t *testing.T) {
	det := &dedupDetector{}
	s := NewServerWith(det, BatchConfig{MaxBatch: 64, Workers: 1})
	defer s.Close()

	// 24 sentences over 4 distinct values, shuffled deterministically.
	sentences := make([]string, 24)
	for i := range sentences {
		sentences[i] = fmt.Sprintf("sentence %d", (i*7)%4)
	}
	got, err := s.DetectContext(context.Background(), sentences)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sentences) {
		t.Fatalf("got %d results for %d sentences", len(got), len(sentences))
	}
	for i, snt := range sentences {
		if want := hashResult(snt); got[i] != want {
			t.Fatalf("result %d = %+v, want %+v (input order broken?)", i, got[i], want)
		}
	}
	seen := det.seen()
	if len(seen) != 4 {
		t.Fatalf("model classified %d sentences, want 4 distinct (dedup missing): %v", len(seen), seen)
	}
	distinct := map[string]bool{}
	for _, s := range seen {
		if distinct[s] {
			t.Fatalf("model saw %q twice", s)
		}
		distinct[s] = true
	}
}

// gateDetector reports every batch the engine hands it, as the batch starts,
// and holds it until the test lets it go — the engine's batching decisions
// made observable as an order of events, with no clock involved.
type gateDetector struct {
	hashDetector
	entered chan []string // one send per model invocation, at its start
	release chan struct{} // one send lets one invocation finish; close frees all
}

// newGateDetector sizes entered so that no worker blocks reporting a batch
// the test has not asked about yet.
func newGateDetector() *gateDetector {
	return &gateDetector{entered: make(chan []string, 64), release: make(chan struct{})}
}

func (d *gateDetector) Detect(ss []string, ws *tensor.Workspace) ([]Result, error) {
	d.entered <- append([]string(nil), ss...)
	<-d.release
	return d.hashDetector.Detect(ss, ws)
}

// DetectContext is submit then wait — what the detect handlers do once they
// have routed — for tests that drive an engine directly.
func (e *engine) DetectContext(ctx context.Context, sentences []string) (results []Result, degraded bool, err error) {
	j, err := e.submit(ctx, sentences)
	if err != nil {
		return nil, false, err
	}
	return j.wait()
}

// pendingDetect is one DetectContext call in flight: what it asked and where
// its outcome will arrive.
type pendingDetect struct {
	sentences []string
	out       <-chan detectOutcome
}

type detectOutcome struct {
	res []Result
	err error
}

// gatedEngine drives one engine behind a gateDetector: submit returns only
// once the engine holds the job, wantNext names the next batch to reach the
// model, and free lets one held batch finish.
type gatedEngine struct {
	t       *testing.T
	det     *gateDetector
	eng     *engine
	sent    int64
	freeAll func() // releases every held and future batch; idempotent
}

func newGatedEngine(t *testing.T, cfg BatchConfig) *gatedEngine {
	t.Helper()
	det := newGateDetector()
	g := &gatedEngine{t: t, det: det}
	g.freeAll = sync.OnceFunc(func() { close(det.release) })
	g.eng = newEngine("", det, cfg)
	// A failed assertion leaves batches held; free them so Close can drain.
	t.Cleanup(func() { g.freeAll(); g.eng.Close() })
	return g
}

func (g *gatedEngine) stats() EngineStats { return g.eng.snapshot() }

// submit starts one DetectContext call and returns once its job is in the
// engine (EngineStats.Requests has counted it), so jobs submitted one after
// another are queued in that order.
func (g *gatedEngine) submit(ctx context.Context, sentences ...string) pendingDetect {
	g.t.Helper()
	ch := make(chan detectOutcome, 1)
	go func() {
		res, _, err := g.eng.DetectContext(ctx, sentences)
		ch <- detectOutcome{res, err}
	}()
	g.sent++
	waitFor(g.t, "the job to reach the engine", func() bool { return g.stats().Requests >= g.sent })
	return pendingDetect{sentences, ch}
}

// waitFor yields until cond holds — an event another goroutine is about to
// produce, so no sleep — and fails the test if it has not after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// singles submits one single-sentence job per sentence, in order.
func (g *gatedEngine) singles(sentences ...string) []pendingDetect {
	g.t.Helper()
	ps := make([]pendingDetect, len(sentences))
	for i, s := range sentences {
		ps[i] = g.submit(context.Background(), s)
	}
	return ps
}

// hold occupies one idle worker with a single-sentence job and returns once
// that batch is inside the model.
func (g *gatedEngine) hold(sentence string) pendingDetect {
	g.t.Helper()
	p := g.submit(context.Background(), sentence)
	g.wantNext(sentence)
	return p
}

// wantNext fails unless the next batch to reach the model is exactly want. A
// worker that waits for company it will never get is reported here, by the
// watchdog, rather than hanging the run.
func (g *gatedEngine) wantNext(want ...string) {
	g.t.Helper()
	select {
	case got := <-g.det.entered:
		if !reflect.DeepEqual(got, want) {
			g.t.Fatalf("model was handed %q, want %q", got, want)
		}
	case <-time.After(10 * time.Second):
		g.t.Fatalf("no batch reached the model; want %q", want)
	}
}

// free lets one held batch finish.
func (g *gatedEngine) free() { g.det.release <- struct{}{} }

// finish frees every batch and checks each pending call got hashResult of
// its own sentences, in order.
func (g *gatedEngine) finish(ps ...pendingDetect) {
	g.t.Helper()
	g.freeAll()
	for _, p := range ps {
		out := <-p.out
		if want := g.det.hashDetector.DetectBatch(p.sentences); out.err != nil || !reflect.DeepEqual(out.res, want) {
			g.t.Fatalf("%q: results %+v, err %v; want %+v", p.sentences, out.res, out.err, want)
		}
	}
}

// TestEngineBatchingRule pins the work-conserving batching rule as an order of
// events on a gated detector: a free worker runs what is queued at once, and
// the queue accumulates — into one batch per freed worker — only while every
// worker is busy. Two more rows of the same table live under their older
// names: a cancelled queued job is skipped
// (TestDetectContextCancelledJobSkipped), and duplicates across the jobs of
// one batch reach the model once (TestRunBatchDedupAcrossCoalescedJobs).
func TestEngineBatchingRule(t *testing.T) {
	ctx := context.Background()
	t.Run("idle pool runs a lone job at once", func(t *testing.T) {
		g := newGatedEngine(t, BatchConfig{MaxBatch: 4, Workers: 2})
		ps := g.singles("a0")
		// No second job exists: a worker waiting for one never gets here.
		g.wantNext("a0")
		g.finish(ps...)
	})
	t.Run("idle workers run concurrent jobs apart", func(t *testing.T) {
		g := newGatedEngine(t, BatchConfig{MaxBatch: 4, Workers: 2})
		b0 := g.submit(ctx, "b0")
		g.wantNext("b0")
		// b0 is still held: b1 must start on the second worker rather than
		// wait behind b0 to share a batch.
		b1 := g.submit(ctx, "b1")
		g.wantNext("b1")
		g.finish(b0, b1)
	})
	t.Run("busy pool accumulates one batch per freed worker", func(t *testing.T) {
		g := newGatedEngine(t, BatchConfig{MaxBatch: 4, Workers: 2})
		h0, h1 := g.hold("h0"), g.hold("h1")
		ps := g.singles("q0", "q1", "q2", "q3", "q4", "q5")
		g.free()
		g.wantNext("q0", "q1", "q2", "q3")
		g.free()
		g.wantNext("q4", "q5")
		g.finish(append(ps, h0, h1)...)
		if st := g.stats(); st.Batches != 4 {
			t.Fatalf("ran %d batches for 2 holders + 6 queued singles, want 4", st.Batches)
		}
	})
	t.Run("job crossing MaxBatch is kept and chunked", func(t *testing.T) {
		g := newGatedEngine(t, BatchConfig{MaxBatch: 4, Workers: 1})
		g.hold("h0")
		c0 := g.submit(ctx, "c0", "c1", "c2")
		c3 := g.submit(ctx, "c3", "c4", "c5")
		c6 := g.submit(ctx, "c6")
		g.free()
		// One batch of both three-sentence jobs, run as chunks of 4 and 2;
		// the job behind them is the next batch.
		g.wantNext("c0", "c1", "c2", "c3")
		g.free()
		g.wantNext("c4", "c5")
		g.free()
		g.wantNext("c6")
		g.finish(c0, c3, c6)
		if st := g.stats(); st.Batches != 3 {
			t.Fatalf("ran %d batches, want 3 (holder, the two crossing jobs, the last)", st.Batches)
		}
	})
	t.Run("Close computes every queued job", func(t *testing.T) {
		g := newGatedEngine(t, BatchConfig{MaxBatch: 2, Workers: 1})
		g.hold("h0")
		ps := g.singles("d0", "d1", "d2")
		g.freeAll()
		g.eng.Close()
		// Close has returned: nothing may still be on its way to the model.
		var ran []string
		for len(g.det.entered) > 0 {
			ran = append(ran, <-g.det.entered...)
		}
		if want := []string{"d0", "d1", "d2"}; !reflect.DeepEqual(ran, want) {
			t.Fatalf("model ran %q before Close returned, want %q", ran, want)
		}
		g.finish(ps...)
	})
}

// TestEngineCloseDrainsInFlight pins Close's drain, which Server.Close and
// anomalyd's SIGTERM shutdown rely on: a batch in flight when Close is called
// returns its results, a job queued behind it is computed too, Close returns
// only after both, and a submit after it fails with errServerClosed.
func TestEngineCloseDrainsInFlight(t *testing.T) {
	g := newGatedEngine(t, BatchConfig{MaxBatch: 1, Workers: 1})
	inFlight := g.hold("in flight")
	queued := g.submit(context.Background(), "queued")

	closed := make(chan struct{})
	go func() { g.eng.Close(); close(closed) }()
	waitFor(t, "Close to refuse new work", func() bool {
		g.eng.mu.RLock()
		defer g.eng.mu.RUnlock()
		return g.eng.closed
	})
	stillOpen := func(what string) {
		t.Helper()
		select {
		case <-closed:
			t.Fatalf("Close returned with %s", what)
		default:
		}
	}
	stillOpen("a batch in flight")
	g.free()
	g.wantNext("queued")
	stillOpen("the queued job in the model")
	g.free()
	<-closed

	g.finish(inFlight, queued)
	if _, err := g.eng.submit(context.Background(), []string{"late"}); !errors.Is(err, errServerClosed) {
		t.Fatalf("submit after Close = %v, want errServerClosed", err)
	}
}

// TestRunBatchDedupAcrossCoalescedJobs pins that deduplication spans request
// boundaries inside one batch: six requests queued behind a busy worker, all
// carrying the same sentence, reach the model as one invocation of the three
// distinct sentences, and every caller gets its own results.
func TestRunBatchDedupAcrossCoalescedJobs(t *testing.T) {
	g := newGatedEngine(t, BatchConfig{MaxBatch: 32, Workers: 1})
	g.hold("blocker")
	var ps []pendingDetect
	for c := 0; c < 6; c++ {
		ps = append(ps, g.submit(context.Background(), "shared line", fmt.Sprintf("own line %d", c%2)))
	}
	g.free()
	g.wantNext("shared line", "own line 0", "own line 1")
	g.finish(ps...)
	if st := g.stats(); st.DedupSaved != 9 {
		t.Fatalf("dedup_saved = %d, want 9 (12 submitted, 3 distinct)", st.DedupSaved)
	}
}

// TestRunBatchDedupSingleSentence pins the fast path: a lone sentence skips
// the dedup map entirely and still classifies correctly.
func TestRunBatchDedupSingleSentence(t *testing.T) {
	det := &dedupDetector{}
	s := NewServerWith(det, BatchConfig{MaxBatch: 8, Workers: 1})
	defer s.Close()
	res, err := s.DetectContext(context.Background(), []string{"only line"})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != hashResult("only line") {
		t.Fatalf("result = %+v", res[0])
	}
}

// fallibleDetector fails, with err, every batch whose first sentence starts
// with prefix ("" fails them all), as a remote model does.
type fallibleDetector struct {
	*gateDetector
	err    error
	prefix string
}

func (d fallibleDetector) Detect(ss []string, ws *tensor.Workspace) ([]Result, error) {
	res, _ := d.gateDetector.Detect(ss, ws)
	if strings.HasPrefix(ss[0], d.prefix) {
		return nil, d.err
	}
	return res, nil
}

// TestEngineModelErrorFailsBatch pins the engine's one error path: a batch
// the model fails fails every job in it with the model's error, and the jobs
// of other batches are untouched.
func TestEngineModelErrorFailsBatch(t *testing.T) {
	down := errors.New("replica down")
	g := &gatedEngine{t: t, det: newGateDetector()}
	g.freeAll = sync.OnceFunc(func() { close(g.det.release) })
	g.eng = newEngine("", fallibleDetector{g.det, down, "fail"}, BatchConfig{MaxBatch: 8, Workers: 1})
	t.Cleanup(func() { g.freeAll(); g.eng.Close() })

	held := g.hold("h0")
	f0 := g.submit(context.Background(), "fail f0")
	f1 := g.submit(context.Background(), "f1", "f2")
	g.free()
	g.wantNext("fail f0", "f1", "f2") // one batch: both queued jobs
	g.finish(held)
	for _, p := range []pendingDetect{f0, f1} {
		if out := <-p.out; !errors.Is(out.err, down) || out.res != nil {
			t.Fatalf("%q: results %+v, err %v; want the model's error", p.sentences, out.res, out.err)
		}
	}
	if st := g.stats(); st.Batches != 1 || st.Shed != 0 {
		t.Fatalf("stats counted %d batches and %d sheds, want 1 and 0: a failed batch ran no compute worth timing, and shed nothing", st.Batches, st.Shed)
	}
}

// TestModelErrorStatus pins how a model's failure reads over HTTP: a shed
// (*OverloadedError) is a 429 with the retry headers, anything else a 503 —
// on /v1/monitor with the partial report and the error, never a 400, which
// stays the strict-mode answer to a malformed line.
func TestModelErrorStatus(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
	}{
		{errors.New("replica down"), http.StatusServiceUnavailable},
		{&OverloadedError{RetryAfter: 2 * time.Second}, http.StatusTooManyRequests},
	} {
		det := fallibleDetector{newGateDetector(), tc.err, ""}
		close(det.release)
		s := NewServerWith(det, BatchConfig{MaxBatch: 2, Workers: 1})
		hs := httptest.NewServer(s)

		resp, err := http.Post(hs.URL+"/v1/detect/batch", "application/json", strings.NewReader(`{"sentences":["fail a"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%v: detect status %d, want %d", tc.err, resp.StatusCode, tc.status)
		}
		if tc.status == http.StatusTooManyRequests && (resp.Header.Get("Retry-After") != "2" || resp.Header.Get("Retry-After-Ms") != "2000") {
			t.Errorf("%v: retry headers %v", tc.err, resp.Header)
		}

		var log strings.Builder
		for i := 0; i < 6; i++ {
			log.WriteString(logparse.LogLine(streamJob(1, i, false)) + "\n")
		}
		resp, err = http.Post(hs.URL+"/v1/monitor", "text/plain", strings.NewReader(log.String()))
		if err != nil {
			t.Fatal(err)
		}
		var mr MonitorResponse
		json.NewDecoder(resp.Body).Decode(&mr)
		resp.Body.Close()
		if resp.StatusCode != tc.status || mr.Error == "" || mr.Processed >= 6 {
			t.Errorf("%v: monitor status %d, report %+v; want %d, an error, lines lost", tc.err, resp.StatusCode, mr, tc.status)
		}
		// A refused batch is counted where a shed is, and a failed one is not.
		st, _ := s.Registry().Stats("")
		if shed := tc.status == http.StatusTooManyRequests; (st.Shed > 0) != shed {
			t.Errorf("%v: stats counted %d sheds, want them counted: %v", tc.err, st.Shed, shed)
		}
		hs.Close()
		s.Close()
	}
}
