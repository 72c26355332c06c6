package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway/ring"
)

// fakeReplica is a scriptable anomalyd stand-in: ready/unready, sheddy,
// slow, and it records which traces its monitor endpoint saw.
type fakeReplica struct {
	srv *httptest.Server

	ready   atomic.Bool
	shed429 atomic.Bool
	delay   atomic.Int64 // ns applied to detect forwards

	detects atomic.Int64
	resets  atomic.Int64

	mu     sync.Mutex
	traces map[string]int // trace id -> monitor lines seen
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{traces: map[string]int{}}
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ready":true}`))
	})
	detect := func(w http.ResponseWriter, r *http.Request) {
		if f.shed429.Load() {
			w.Header().Set("Retry-After-Ms", "60000")
			w.Header().Set("Retry-After", "60")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		if d := f.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		f.detects.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"replica":%q}`, f.srv.URL)
	}
	mux.HandleFunc("/v1/detect", detect)
	mux.HandleFunc("/v1/detect/batch", detect)
	mux.HandleFunc("/v1/monitor", func(w http.ResponseWriter, r *http.Request) {
		sc := bufio.NewScanner(r.Body)
		n := 0
		local := map[string]bool{}
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			n++
			if i := strings.Index(line, "trace="); i >= 0 {
				id := line[i+len("trace="):]
				if k := strings.IndexByte(id, ' '); k >= 0 {
					id = id[:k]
				}
				local[id] = true
				f.mu.Lock()
				f.traces[id]++
				f.mu.Unlock()
			}
		}
		writeJSON(w, core.MonitorResponse{MonitorReport: core.MonitorReport{
			Processed:    n,
			ActiveTraces: len(local),
		}})
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, core.ModelsResponse{Models: []core.ModelInfo{{
			Name:         "default",
			Default:      true,
			ActiveTraces: 3,
			QueueDepth:   64,
			Stats:        core.EngineStats{Requests: 10, Sentences: 20, Batches: 5, QueueWaitP99Ms: 7},
		}}})
	})
	mux.HandleFunc("/v1/stats/reset", func(w http.ResponseWriter, r *http.Request) {
		f.resets.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, ": streaming\n\n")
		fl.Flush()
		fmt.Fprintf(w, "event: alert\ndata: {\"replica\":%q}\n\n", f.srv.URL)
		fl.Flush()
		<-r.Context().Done()
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) traceSet() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.traces))
	for k, v := range f.traces {
		out[k] = v
	}
	return out
}

// newGateway builds a gateway over the fakes with fast test timings.
func newGateway(t *testing.T, cfg Config, fakes ...*fakeReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	for _, f := range fakes {
		cfg.Replicas = append(cfg.Replicas, f.srv.URL)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	g, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)
	return g, srv
}

func postDetect(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"sentences":["ok"]}`))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func drainClose(t *testing.T, resp *http.Response) {
	t.Helper()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func metricValue(t *testing.T, text, needle string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, needle+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(needle)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found in exposition:\n%s", needle, text)
	return 0
}

func TestForwardBasic(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	_, srv := newGateway(t, Config{}, a, b)

	resp := postDetect(t, srv.URL+"/v1/detect")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Gateway-Replica") == "" {
		t.Fatalf("missing X-Gateway-Replica header")
	}
	drainClose(t, resp)
	if a.detects.Load()+b.detects.Load() != 1 {
		t.Fatalf("fleet saw %d detects, want 1", a.detects.Load()+b.detects.Load())
	}
}

func TestTraceAffinity(t *testing.T) {
	a, b, c := newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)
	_, srv := newGateway(t, Config{}, a, b, c)

	rg := ring.New([]string{a.srv.URL, b.srv.URL, c.srv.URL}, 0)
	owner := rg.Owner(ring.TraceKey(7))
	for i := 0; i < 5; i++ {
		resp := postDetect(t, srv.URL+"/v1/detect?trace=7")
		if got := resp.Header.Get("X-Gateway-Replica"); got != owner {
			t.Fatalf("request %d went to %s, want ring owner %s", i, got, owner)
		}
		drainClose(t, resp)
	}
}

func TestHealthEjectionAndReadmission(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	g, srv := newGateway(t, Config{HealthInterval: 10 * time.Millisecond}, a, b)

	a.ready.Store(false)
	waitFor(t, time.Second, func() bool { return !g.replicas[a.srv.URL].healthy.Load() })

	// All traffic, even trace-pinned-to-a traffic, lands on b.
	for i := 0; i < 10; i++ {
		resp := postDetect(t, srv.URL+fmt.Sprintf("/v1/detect?trace=%d", i))
		if got := resp.Header.Get("X-Gateway-Replica"); got != b.srv.URL {
			t.Fatalf("with %s ejected, request went to %s", a.srv.URL, got)
		}
		drainClose(t, resp)
	}
	if ej := g.replicas[a.srv.URL].ejections.Load(); ej != 1 {
		t.Fatalf("ejections = %d, want 1", ej)
	}

	a.ready.Store(true)
	waitFor(t, time.Second, func() bool { return g.replicas[a.srv.URL].healthy.Load() })
	text := metricsText(t, srv.URL)
	if v := metricValue(t, text, fmt.Sprintf("repro_gateway_replica_healthy{replica=%q}", a.srv.URL)); v != 1 {
		t.Fatalf("replica_healthy = %v after readmission, want 1", v)
	}
}

func TestHedgeWinsOverStraggler(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	_, srv := newGateway(t, Config{HedgeDelay: 10 * time.Millisecond}, a, b)

	// Pin candidate order with a trace key, then make the owner a straggler.
	rg := ring.New([]string{a.srv.URL, b.srv.URL}, 0)
	prefs := rg.Lookup(ring.TraceKey(42))
	slow, fast := a, b
	if prefs[0] == b.srv.URL {
		slow, fast = b, a
	}
	slow.delay.Store(int64(400 * time.Millisecond))

	start := time.Now()
	resp := postDetect(t, srv.URL+"/v1/detect?trace=42")
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gateway-Replica"); got != fast.srv.URL {
		t.Fatalf("answered by %s, want hedge target %s", got, fast.srv.URL)
	}
	drainClose(t, resp)
	if elapsed > 300*time.Millisecond {
		t.Fatalf("hedged request took %v, want well under the straggler's 400ms", elapsed)
	}
	text := metricsText(t, srv.URL)
	if v := metricValue(t, text, "repro_gateway_hedge_wins_total"); v < 1 {
		t.Fatalf("hedge_wins_total = %v, want >= 1", v)
	}
}

func TestCooldownReroutesAfter429(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	g, srv := newGateway(t, Config{HedgeDelay: time.Hour}, a, b)

	rg := ring.New([]string{a.srv.URL, b.srv.URL}, 0)
	prefs := rg.Lookup(ring.TraceKey(3))
	shedder := a
	if prefs[0] == b.srv.URL {
		shedder = b
	}
	other := a
	if shedder == a {
		other = b
	}
	shedder.shed429.Store(true)

	// First request: the owner sheds, the retry rotates to the survivor.
	resp := postDetect(t, srv.URL+"/v1/detect?trace=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via failover", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gateway-Replica"); got != other.srv.URL {
		t.Fatalf("answered by %s, want failover target %s", got, other.srv.URL)
	}
	drainClose(t, resp)

	// The 429's Retry-After is now a cooldown: the owner is not routable, so
	// the next request goes straight to the survivor without an attempt.
	before := other.detects.Load()
	resp = postDetect(t, srv.URL+"/v1/detect?trace=3")
	drainClose(t, resp)
	if other.detects.Load() != before+1 {
		t.Fatalf("cooldown did not route to the survivor")
	}
	if !time.Now().Before(time.Unix(0, g.replicas[shedder.srv.URL].coolUntil.Load())) {
		t.Fatalf("shedding replica has no active cooldown")
	}
	text := metricsText(t, srv.URL)
	if v := metricValue(t, text, fmt.Sprintf("repro_gateway_replica_cooling{replica=%q}", shedder.srv.URL)); v != 1 {
		t.Fatalf("replica_cooling = %v, want 1", v)
	}
	if v := metricValue(t, text, "repro_gateway_retries_total"); v < 1 {
		t.Fatalf("retries_total = %v, want >= 1", v)
	}
}

func TestShedWhenNothingRoutable(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	_, srv := newGateway(t, Config{HedgeDelay: time.Hour}, a, b)
	a.shed429.Store(true)
	b.shed429.Store(true)

	// First request: every candidate sheds; the last 429 relays as-is with
	// the replica's own Retry-After intact.
	resp := postDetect(t, srv.URL+"/v1/detect")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want relayed 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After-Ms") != "60000" {
		t.Fatalf("Retry-After-Ms = %q, want the replica's 60000", resp.Header.Get("Retry-After-Ms"))
	}
	drainClose(t, resp)

	// Both replicas now cool: the gateway sheds at the boundary without
	// forwarding anything.
	resp = postDetect(t, srv.URL+"/v1/detect")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want gateway shed 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After-Ms") == "" {
		t.Fatalf("gateway shed missing Retry-After hints: %v", resp.Header)
	}
	drainClose(t, resp)
	text := metricsText(t, srv.URL)
	if v := metricValue(t, text, "repro_gateway_shed_total"); v < 1 {
		t.Fatalf("shed_total = %v, want >= 1", v)
	}

	// /readyz agrees: nothing routable.
	rr, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status = %d, want 503 while everything cools", rr.StatusCode)
	}
}

func TestModelsMergeAndStatsReset(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	_, srv := newGateway(t, Config{}, a, b)

	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatalf("GET /v1/models: %v", err)
	}
	defer resp.Body.Close()
	var agg ModelsAggregate
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatalf("decoding aggregate: %v", err)
	}
	if len(agg.Replicas) != 2 {
		t.Fatalf("replicas in aggregate = %d, want 2", len(agg.Replicas))
	}
	if len(agg.Models) != 1 || agg.Models[0].Name != "default" {
		t.Fatalf("merged models = %+v, want one 'default'", agg.Models)
	}
	m := agg.Models[0]
	if m.Stats.Requests != 20 || m.Stats.Sentences != 40 || m.ActiveTraces != 6 {
		t.Fatalf("merged stats not summed: requests=%d sentences=%d active=%d", m.Stats.Requests, m.Stats.Sentences, m.ActiveTraces)
	}
	if m.Stats.QueueWaitP99Ms != 7 {
		t.Fatalf("merged p99 = %v, want per-replica max 7", m.Stats.QueueWaitP99Ms)
	}

	rr, err := http.Post(srv.URL+"/v1/stats/reset", "", nil)
	if err != nil {
		t.Fatalf("POST /v1/stats/reset: %v", err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusNoContent {
		t.Fatalf("reset status = %d, want 204", rr.StatusCode)
	}
	if a.resets.Load() != 1 || b.resets.Load() != 1 {
		t.Fatalf("resets not fanned out: a=%d b=%d", a.resets.Load(), b.resets.Load())
	}
}

func monitorLines(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "wf=w trace=%d node=1 task=ok\n", i)
	}
	return sb.String()
}

func TestMonitorDemux(t *testing.T) {
	a, b, c := newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)
	_, srv := newGateway(t, Config{}, a, b, c)

	const n = 30
	resp, err := http.Post(srv.URL+"/v1/monitor", "text/plain", strings.NewReader(monitorLines(n)))
	if err != nil {
		t.Fatalf("POST /v1/monitor: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	var agg MonitorAggregate
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatalf("decoding aggregate: %v", err)
	}
	if agg.Processed != n {
		t.Fatalf("merged Processed = %d, want %d", agg.Processed, n)
	}
	if agg.Gateway.Lost != 0 || agg.Gateway.Rerouted != 0 {
		t.Fatalf("healthy fleet lost=%d rerouted=%d, want 0/0", agg.Gateway.Lost, agg.Gateway.Rerouted)
	}
	// Demux correctness: every trace on exactly one replica, union complete.
	seen := map[string]string{}
	for _, f := range []*fakeReplica{a, b, c} {
		for id := range f.traceSet() {
			if prev, dup := seen[id]; dup {
				t.Fatalf("trace %s split across %s and %s", id, prev, f.srv.URL)
			}
			seen[id] = f.srv.URL
		}
	}
	if len(seen) != n {
		t.Fatalf("fleet saw %d distinct traces, want %d", len(seen), n)
	}
	// Demux agrees with the ring.
	rg := ring.New([]string{a.srv.URL, b.srv.URL, c.srv.URL}, 0)
	for id, at := range seen {
		if want := rg.Owner("trace:" + id); at != want {
			t.Fatalf("trace %s on %s, ring owner is %s", id, at, want)
		}
	}
}

func TestMonitorJSONBody(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	_, srv := newGateway(t, Config{}, a, b)

	body, _ := json.Marshal(core.MonitorRequest{Lines: []string{
		"wf=w trace=1 node=1 task=ok",
		"wf=w trace=2 node=1 task=ok",
	}})
	resp, err := http.Post(srv.URL+"/v1/monitor", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var agg MonitorAggregate
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if agg.Processed != 2 {
		t.Fatalf("Processed = %d, want 2", agg.Processed)
	}
}

func TestMonitorReroutesWhenReplicaDies(t *testing.T) {
	a, b, c := newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)
	// Long health interval: the demux must fail over on its own, before the
	// health checker notices anything.
	_, srv := newGateway(t, Config{HealthInterval: time.Hour}, a, b, c)

	victim := c
	victim.srv.CloseClientConnections()
	victim.srv.Close()

	const n = 30
	resp, err := http.Post(srv.URL+"/v1/monitor", "text/plain", strings.NewReader(monitorLines(n)))
	if err != nil {
		t.Fatalf("POST /v1/monitor: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	var agg MonitorAggregate
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatalf("decoding aggregate: %v", err)
	}
	if agg.Gateway.Lost != 0 {
		t.Fatalf("lost %d lines with two healthy survivors", agg.Gateway.Lost)
	}
	if agg.Processed != n {
		t.Fatalf("merged Processed = %d, want %d (every line re-homed)", agg.Processed, n)
	}
	// Every trace must land whole on exactly one SURVIVOR — and specifically
	// on its next ring preference after the victim.
	rg := ring.New([]string{a.srv.URL, b.srv.URL, c.srv.URL}, 0)
	seen := map[string]string{}
	for _, f := range []*fakeReplica{a, b} {
		for id := range f.traceSet() {
			if prev, dup := seen[id]; dup {
				t.Fatalf("trace %s split across %s and %s", id, prev, f.srv.URL)
			}
			seen[id] = f.srv.URL
		}
	}
	if len(seen) != n {
		t.Fatalf("survivors saw %d distinct traces, want %d", len(seen), n)
	}
	reroutedWant := 0
	for id, at := range seen {
		prefs := rg.Lookup("trace:" + id)
		want := prefs[0]
		if want == victim.srv.URL {
			want = prefs[1]
			reroutedWant++
		}
		if at != want {
			t.Fatalf("trace %s on %s, want %s (ring order %v)", id, at, want, prefs)
		}
	}
	if reroutedWant == 0 {
		t.Fatalf("test vacuous: no trace was owned by the victim")
	}
	if agg.Gateway.Rerouted == 0 {
		t.Fatalf("rerouted counter = 0, want > 0")
	}
}

func TestAlertsFanIn(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	_, srv := newGateway(t, Config{}, a, b)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/alerts", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatalf("GET /v1/alerts: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	want := map[string]bool{a.srv.URL: false, b.srv.URL: false}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for u := range want {
			if strings.Contains(line, u) {
				want[u] = true
			}
		}
		if want[a.srv.URL] && want[b.srv.URL] {
			return // both replicas' events reached the merged stream
		}
	}
	t.Fatalf("stream ended before both replicas' alerts arrived: %v (err %v)", want, sc.Err())
}

func TestGatewayMetricsExposition(t *testing.T) {
	a := newFakeReplica(t)
	_, srv := newGateway(t, Config{}, a)
	drainClose(t, postDetect(t, srv.URL+"/v1/detect"))

	text := metricsText(t, srv.URL)
	for _, m := range []string{
		"repro_gateway_replicas 1",
		"repro_gateway_requests_total 1",
		"# TYPE repro_gateway_requests_total counter",
		"repro_gateway_retry_budget_tokens",
		fmt.Sprintf("repro_gateway_forwarded_total{replica=%q} 1", a.srv.URL),
	} {
		if !strings.Contains(text, m) {
			t.Fatalf("exposition missing %q:\n%s", m, text)
		}
	}
	if v := metricValue(t, text, `repro_gateway_forward_latency_ms{quantile="0.99"}`); v < 0 {
		t.Fatalf("latency quantile = %v", v)
	}
}

func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New(context.Background(), Config{}); err == nil {
		t.Fatalf("New with no replicas succeeded")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v", timeout)
}

// scriptedTransport answers each forward as its script says: "ok" is a 200,
// "error" a transport failure, "cancelled" cancels the caller's context (as a
// hedge race's winner does to the loser) and fails the way net/http then does.
type scriptedTransport struct {
	outcome string
	cancel  context.CancelFunc
}

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch s.outcome {
	case "ok":
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(`{}`))}, nil
	case "cancelled":
		s.cancel()
		return nil, req.Context().Err()
	}
	return nil, fmt.Errorf("connection refused")
}

// TestForwardCancelledIsNotAReplicaFailure pins that an attempt which failed
// because its caller's context was cancelled counts neither way on the
// replica's breaker and failure counter, while a transport error still does.
func TestForwardCancelledIsNotAReplicaFailure(t *testing.T) {
	for _, tc := range []struct {
		name     string
		script   []string
		state    string
		failures int64
	}{
		{"cancelled attempts leave the circuit closed", []string{"cancelled", "cancelled", "cancelled", "cancelled"}, "closed", 0},
		{"transport errors still open it", []string{"error", "error"}, "open", 2},
		{"a cancelled attempt does not reset the streak", []string{"error", "cancelled", "error"}, "open", 2},
		// The 1ns cooldown has always passed by the next attempt, so each
		// attempt after the circuit opens is a half-open probe.
		{"a cancelled probe lets the next request probe", []string{"error", "error", "cancelled", "ok"}, "closed", 2},
		{"a failed probe re-opens", []string{"error", "error", "cancelled", "error"}, "open", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := &scriptedTransport{}
			g, err := New(context.Background(), Config{
				Replicas:         []string{"http://replica.invalid"},
				Client:           &http.Client{Transport: rt},
				HealthInterval:   time.Hour, // no probe runs during the test
				BreakerThreshold: 2,
				BreakerCooldown:  time.Nanosecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			rep := g.replicas["http://replica.invalid"]
			for i, outcome := range tc.script {
				ctx, cancel := context.WithCancel(context.Background())
				rt.outcome, rt.cancel = outcome, cancel
				_, err := g.forwardOnce(ctx, rep, http.MethodPost, "/v1/detect", "application/json", []byte(`{}`))
				cancel()
				if (err == nil) != (outcome == "ok") {
					t.Fatalf("attempt %d (%s): err = %v", i, outcome, err)
				}
			}
			if got := rep.breaker.State().String(); got != tc.state {
				t.Errorf("breaker %s, want %s", got, tc.state)
			}
			if got := rep.failures.Load(); got != tc.failures {
				t.Errorf("failures = %d, want %d", got, tc.failures)
			}
		})
	}
}
