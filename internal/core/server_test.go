package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logparse"
	"repro/internal/tensor"
)

// TestDetectBatchMatchesSequential pins the batched detector path to the
// per-sentence path: same labels, same scores, input order preserved.
func TestDetectBatchMatchesSequential(t *testing.T) {
	det, ds := detector(t)
	sentences := make([]string, 16)
	for i := range sentences {
		sentences[i] = logparse.Sentence(ds.Test[i])
	}
	got := det.DetectBatch(sentences)
	if len(got) != len(sentences) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(sentences))
	}
	for i, s := range sentences {
		want := det.DetectSentence(s)
		if got[i].Label != want.Label {
			t.Fatalf("sentence %d: batch label %d vs sequential %d", i, got[i].Label, want.Label)
		}
		if math.Abs(got[i].Score-want.Score) > 1e-5 {
			t.Fatalf("sentence %d: batch score %v vs sequential %v", i, got[i].Score, want.Score)
		}
	}
	if res := det.DetectBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

// TestServerBatchOrdering posts a batch larger than MaxBatch and checks the
// results come back in input order, matching the sequential classification
// of each sentence.
func TestServerBatchOrdering(t *testing.T) {
	det, ds := detector(t)
	s := NewServerWith(det, BatchConfig{MaxBatch: 4, Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	sentences := make([]string, 10)
	want := make([]Result, 10)
	for i := range sentences {
		sentences[i] = logparse.Sentence(ds.Test[i])
		want[i] = det.DetectSentence(sentences[i])
	}
	body, _ := json.Marshal(BatchRequest{Sentences: sentences})
	resp, err := http.Post(srv.URL+"/v1/detect/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(sentences) {
		t.Fatalf("results = %d, want %d", len(out.Results), len(sentences))
	}
	for i, r := range out.Results {
		if r.Label != want[i].Label {
			t.Fatalf("result %d out of order: label %d, want %d", i, r.Label, want[i].Label)
		}
	}
}

// TestServerCoalescedConcurrency fires concurrent single-sentence requests
// through the coalescing layer and checks every response against the
// sequential reference — correctness must not depend on how requests are
// micro-batched together.
func TestServerCoalescedConcurrency(t *testing.T) {
	det, ds := detector(t)
	s := NewServerWith(det, BatchConfig{MaxBatch: 8, Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	const n = 24
	sentences := make([]string, n)
	want := make([]Result, n)
	for i := range sentences {
		sentences[i] = logparse.Sentence(ds.Test[i%len(ds.Test)])
		want[i] = det.DetectSentence(sentences[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(DetectRequest{Sentence: sentences[i]})
			resp, err := http.Post(srv.URL+"/v1/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var out DetectResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err.Error()
				return
			}
			if out.Label != want[i].Label || math.Abs(out.Score-want[i].Score) > 1e-5 {
				errs <- "coalesced response does not match sequential reference"
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestServerBatchErrors covers the batch endpoint's error and edge paths.
func TestServerBatchErrors(t *testing.T) {
	det, _ := detector(t)
	s := NewServer(det)
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Malformed JSON.
	resp, _ := http.Post(srv.URL+"/v1/detect/batch", "application/json", strings.NewReader("{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-json status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Empty body.
	resp, _ = http.Post(srv.URL+"/v1/detect/batch", "application/json", strings.NewReader(""))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-body status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Empty sentence list: valid, zero results.
	resp, _ = http.Post(srv.URL+"/v1/detect/batch", "application/json", strings.NewReader(`{"sentences":[]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-list status = %d", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Results) != 0 {
		t.Fatalf("empty list returned %d results", len(out.Results))
	}
}

// TestServerClose checks shutdown semantics: Close is idempotent, and
// subsequent requests fail with 503 / errServerClosed instead of hanging.
func TestServerClose(t *testing.T) {
	det, ds := detector(t)
	s := NewServer(det)
	srv := httptest.NewServer(s)
	defer srv.Close()

	sentence := logparse.Sentence(ds.Test[0])
	if _, err := s.DetectContext(context.Background(), []string{sentence}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.DetectContext(context.Background(), []string{sentence}); err != errServerClosed {
		t.Fatalf("Detect after Close: err = %v", err)
	}
	body, _ := json.Marshal(DetectRequest{Sentence: sentence})
	resp, err := http.Post(srv.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close status = %d", resp.StatusCode)
	}
}

// TestHealthReportsBatching checks the health endpoint exposes the batching
// knobs.
func TestHealthReportsBatching(t *testing.T) {
	det, _ := detector(t)
	s := NewServerWith(det, BatchConfig{MaxBatch: 16, Workers: 3})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Approach string `json:"approach"`
		MaxBatch int    `json:"max_batch"`
		Workers  int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.MaxBatch != 16 || health.Workers != 3 {
		t.Fatalf("health = %+v", health)
	}
}

// wsProbeDetector is a stub Model that stamps a per-call token into
// workspace scratch and re-reads it after simulated work. If the server ever
// handed one workspace to two concurrent batches, the re-read (or the race
// detector) catches it.
type wsProbeDetector struct {
	mu    sync.Mutex
	calls int
	fails int
}

func (d *wsProbeDetector) Approach() Approach   { return SFT }
func (d *wsProbeDetector) Precision() Precision { return PrecisionFP32 }

func (d *wsProbeDetector) Detect(sentences []string, ws *tensor.Workspace) ([]Result, error) {
	d.mu.Lock()
	d.calls++
	token := float32(d.calls)
	d.mu.Unlock()
	m := ws.Get(16, 16)
	m.Fill(token)
	scratch := ws.Get(8, 8) // exercise multiple arena slots
	scratch.Fill(-token)
	time.Sleep(time.Millisecond) // widen the overlap window across workers
	for _, v := range m.Data {
		if v != token {
			d.mu.Lock()
			d.fails++
			d.mu.Unlock()
			break
		}
	}
	return make([]Result, len(sentences)), nil
}

// hammer sends 160 three-sentence detects to s from 8 goroutines.
func hammer(t *testing.T, s *Server) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.DetectContext(context.Background(), []string{"a", "b", "c"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServerWorkersOwnWorkspaces hammers a multi-worker server under -race:
// every model invocation must see a workspace exclusively its own.
func TestServerWorkersOwnWorkspaces(t *testing.T) {
	det := &wsProbeDetector{}
	s := NewServerWith(det, BatchConfig{MaxBatch: 2, Workers: 4})
	defer s.Close()
	hammer(t, s)
	det.mu.Lock()
	defer det.mu.Unlock()
	if det.calls == 0 {
		t.Fatal("workspace-threaded batch path never ran")
	}
	if det.fails != 0 {
		t.Fatalf("%d batches observed another batch's workspace writes", det.fails)
	}
}

// arenaProbe is a Model that ignores its workspace, as a remote model does,
// and records the bytes each one it is handed holds.
type arenaProbe struct {
	hashDetector
	mu    sync.Mutex
	bytes []int
}

func (d *arenaProbe) Detect(ss []string, ws *tensor.Workspace) ([]Result, error) {
	d.mu.Lock()
	d.bytes = append(d.bytes, ws.Bytes())
	d.mu.Unlock()
	return d.hashDetector.Detect(ss, ws)
}

// TestEngineWorkersTakeNoPooledArena pins that a worker's arena is fresh, not
// drawn from the workspace pool: with grown workspaces waiting there, a model
// that never touches its arena is handed empty ones on every call. A pooled
// arena keeps the size its last user grew it to, and a worker would pin that
// for its whole life.
func TestEngineWorkersTakeNoPooledArena(t *testing.T) {
	grown := make([]*tensor.Workspace, 8)
	for i := range grown {
		grown[i] = tensor.GetWorkspace()
		grown[i].Get(256, 256)
	}
	for _, ws := range grown {
		tensor.PutWorkspace(ws)
	}
	det := &arenaProbe{}
	s := NewServerWith(det, BatchConfig{MaxBatch: 2, Workers: 2})
	defer s.Close()
	hammer(t, s)
	det.mu.Lock()
	defer det.mu.Unlock()
	if len(det.bytes) == 0 {
		t.Fatal("the model was never called")
	}
	for i, n := range det.bytes {
		if n != 0 {
			t.Fatalf("call %d of %d was handed an arena holding %d bytes; want a fresh one", i, len(det.bytes), n)
		}
	}
}

// countingDetector is a stub that records every sentence it classifies and
// can be slowed down to hold a worker busy.
type countingDetector struct {
	delay time.Duration
	mu    sync.Mutex
	seen  []string
}

func (d *countingDetector) record(ss []string) []Result {
	d.mu.Lock()
	d.seen = append(d.seen, ss...)
	d.mu.Unlock()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	out := make([]Result, len(ss))
	for i, s := range ss {
		out[i] = Result{Label: len(s) % 2, Score: float64(len(s))}
	}
	return out
}

func (d *countingDetector) Detect(ss []string, _ *tensor.Workspace) ([]Result, error) {
	return d.record(ss), nil
}
func (d *countingDetector) Approach() Approach   { return SFT }
func (d *countingDetector) Precision() Precision { return PrecisionFP32 }

func (d *countingDetector) sentences() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.seen...)
}

// TestDetectContextCancelledJobSkipped checks a job whose caller gave up
// while it sat queued is never classified: its waiter is unblocked with the
// context's error and its sentences do not reach the model.
func TestDetectContextCancelledJobSkipped(t *testing.T) {
	g := newGatedEngine(t, BatchConfig{MaxBatch: 8, Workers: 1})
	blocker := g.hold("blocker")

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := g.submit(ctx, "cancelled-job")
	behind := g.submit(context.Background(), "behind-it")
	cancel()
	if out := <-cancelled.out; out.err != context.Canceled {
		t.Fatalf("DetectContext err = %v, want context.Canceled", out.err)
	}
	g.free()
	g.wantNext("behind-it") // the batch held both jobs; only the live one ran
	g.finish(blocker, behind)
}

// TestDetectContextPreCancelled checks an already-dead context never
// enqueues.
func TestDetectContextPreCancelled(t *testing.T) {
	det := &countingDetector{}
	s := NewServerWith(det, BatchConfig{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DetectContext(ctx, []string{"x"}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestServerCloseWithInflightDetectContext hammers Close against concurrent
// DetectContext callers (some cancelling) under -race: every call must
// return a result, a context error, or errServerClosed — never hang or
// panic.
func TestServerCloseWithInflightDetectContext(t *testing.T) {
	det := &countingDetector{delay: time.Millisecond}
	s := NewServerWith(det, BatchConfig{MaxBatch: 4, Workers: 2, QueueDepth: 8})

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if g%2 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*time.Millisecond)
				}
				res, err := s.DetectContext(ctx, []string{"a", "b"})
				cancel()
				switch {
				case err == nil:
					if len(res) != 2 {
						t.Errorf("got %d results, want 2", len(res))
						return
					}
				case err == errServerClosed, err == context.Canceled, err == context.DeadlineExceeded:
				default:
					t.Errorf("unexpected error %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()
}

// TestRunBatchResultsNotAliased pins the fix for jobs sharing one results
// backing array: mutating one caller's results must not corrupt another's
// when both were answered from a single batch.
func TestRunBatchResultsNotAliased(t *testing.T) {
	g := newGatedEngine(t, BatchConfig{MaxBatch: 8, Workers: 1})
	g.hold("blocker")
	ps := g.singles("aa", "bbbb")
	g.free()
	g.wantNext("aa", "bbbb")
	g.freeAll()
	first, second := <-ps[0].out, <-ps[1].out
	if first.err != nil || second.err != nil || len(first.res) != 1 || len(second.res) != 1 {
		t.Fatalf("outcomes %+v, %+v", first, second)
	}
	want := second.res[0]
	first.res[0] = Result{Label: -99, Score: -99}
	if second.res[0] != want {
		t.Fatalf("mutating request 0's results changed request 1's: %+v", second.res[0])
	}
}

// TestHandleBatchSentenceCap checks one huge request can't bypass the
// queue-depth backpressure: over-cap batches are rejected with 413.
func TestHandleBatchSentenceCap(t *testing.T) {
	det := &countingDetector{}
	s := NewServerWith(det, BatchConfig{MaxRequest: 4, Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	body, _ := json.Marshal(BatchRequest{Sentences: []string{"a", "b", "c", "d", "e"}})
	resp, err := http.Post(srv.URL+"/v1/detect/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	// At the cap is fine.
	body, _ = json.Marshal(BatchRequest{Sentences: []string{"a", "b", "c", "d"}})
	resp, err = http.Post(srv.URL+"/v1/detect/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-cap status = %d, want 200", resp.StatusCode)
	}
}

// TestWrongMethod405 pins every method-bound route to the mux's 405: the
// status plus an Allow header naming the route's method (a GET route allows
// HEAD too).
func TestWrongMethod405(t *testing.T) {
	s := NewServerWith(hashDetector{}, BatchConfig{MaxBatch: 4})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/detect", "POST"},
		{http.MethodGet, "/v1/detect/batch", "POST"},
		{http.MethodGet, "/v1/monitor", "POST"},
		{http.MethodPost, "/v1/models", "GET, HEAD"},
		{http.MethodGet, "/v1/stats/reset", "POST"},
		{http.MethodPost, "/v1/alerts", "GET, HEAD"},
		{http.MethodPost, "/readyz", "GET, HEAD"},
		{http.MethodPost, "/metrics", "GET, HEAD"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != c.allow {
			t.Errorf("%s %s: status %d, Allow %q; want 405, %q",
				c.method, c.path, resp.StatusCode, resp.Header.Get("Allow"), c.allow)
		}
	}
}

// TestAlertsHeadReturns pins that HEAD /v1/alerts, which the GET route
// answers, gets the stream's headers and returns instead of holding the
// connection in the event loop.
func TestAlertsHeadReturns(t *testing.T) {
	s := NewServerWith(hashDetector{}, BatchConfig{MaxBatch: 4})
	defer s.Close()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/v1/alerts", nil))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HEAD /v1/alerts still streaming after 5s")
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "text/event-stream" {
		t.Fatalf("HEAD /v1/alerts: status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if n := s.bus.stats().Subscribers; n != 0 {
		t.Fatalf("HEAD left %d alert subscribers", n)
	}
}

// TestListenAndServeGracefulShutdown cancels ListenAndServe's context while
// an /v1/alerts stream is open and a detect is inside the model: the stream
// ends, ListenAndServe waits for the detect, the detect answers 200, and
// ListenAndServe returns nil.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	det := newGateDetector()
	s := NewServerWith(det, BatchConfig{MaxBatch: 1, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, addr, s) }()
	base := "http://" + addr
	waitFor(t, "the listener", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil
	})

	events, stop := sseSubscribe(t, base)
	defer stop()
	detected := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/detect", "application/json", strings.NewReader(`{"sentence": "x is 1.0"}`))
		if err != nil {
			detected <- 0
			return
		}
		resp.Body.Close()
		detected <- resp.StatusCode
	}()
	<-det.entered

	cancel()
	for range events { // the stream ends once shutdown has begun
	}
	select {
	case err := <-served:
		t.Fatalf("ListenAndServe returned %v with a detect in flight", err)
	default:
	}
	close(det.release)
	timeout := time.After(10 * time.Second)
	select {
	case code := <-detected:
		if code != http.StatusOK {
			t.Fatalf("in-flight detect answered %d, want 200", code)
		}
	case <-timeout:
		t.Fatal("in-flight detect never answered")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ListenAndServe = %v, want nil", err)
		}
	case <-timeout:
		t.Fatal("ListenAndServe never returned")
	}
	if _, err := s.DetectContext(context.Background(), []string{"after"}); err != errServerClosed {
		t.Fatalf("detect after shutdown: %v, want errServerClosed", err)
	}
}
