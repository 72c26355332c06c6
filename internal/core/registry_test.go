package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// labelDetector is a fast stub whose every result carries a fixed label and
// score, so routing tests can tell which model answered.
type labelDetector struct {
	label int
	score float64
	delay time.Duration // per-batch model latency, to widen race windows
}

func (d labelDetector) DetectSentence(string) Result {
	return Result{Label: d.label, Score: d.score}
}

func (d labelDetector) DetectBatch(ss []string) []Result {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	out := make([]Result, len(ss))
	for i := range out {
		out[i] = Result{Label: d.label, Score: d.score}
	}
	return out
}

func (d labelDetector) DetectJob(flowbench.Job) Result {
	return Result{Label: d.label, Score: d.score}
}

func (d labelDetector) Approach() Approach { return SFT }

func TestRegistryAddAndNames(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	if err := reg.Add("beta", labelDetector{label: 1}, BatchConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("alpha", labelDetector{label: 0}, BatchConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("beta", labelDetector{}, BatchConfig{}); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if err := reg.Add("", labelDetector{}, BatchConfig{}); err == nil {
		t.Fatal("empty-name Add succeeded")
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("names = %v", got)
	}
	// First added is the default, regardless of sort order.
	if reg.Default() != "beta" {
		t.Fatalf("default = %q, want beta", reg.Default())
	}
	if err := reg.SetDefault("alpha"); err != nil {
		t.Fatal(err)
	}
	if reg.Default() != "alpha" {
		t.Fatalf("default = %q after SetDefault", reg.Default())
	}
	if err := reg.SetDefault("nope"); err == nil {
		t.Fatal("SetDefault on unknown model succeeded")
	}
}

// TestServerRoutesByModelName serves two models from one process and checks
// that ?model= routing reaches the right one by name — the "train once,
// serve many" acceptance path.
func TestServerRoutesByModelName(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("genome-sft", labelDetector{label: 0, score: 0.25}, BatchConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("montage-sft", labelDetector{label: 1, score: 0.75}, BatchConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	s := NewServerRegistry(reg)
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	post := func(model string) (DetectResponse, int) {
		t.Helper()
		url := srv.URL + "/v1/detect"
		if model != "" {
			url += "?model=" + model
		}
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"sentence":"runtime is 5.0"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out DetectResponse
		json.NewDecoder(resp.Body).Decode(&out)
		return out, resp.StatusCode
	}

	if out, code := post("genome-sft"); code != http.StatusOK || out.Label != 0 || out.Score != 0.25 {
		t.Fatalf("genome-sft → %+v (status %d)", out, code)
	}
	if out, code := post("montage-sft"); code != http.StatusOK || out.Label != 1 || out.Score != 0.75 {
		t.Fatalf("montage-sft → %+v (status %d)", out, code)
	}
	// No ?model= routes to the default (first added).
	if out, code := post(""); code != http.StatusOK || out.Label != 0 {
		t.Fatalf("default route → %+v (status %d)", out, code)
	}
	if _, code := post("no-such-model"); code != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", code)
	}

	// The batch endpoint routes too.
	resp, err := http.Post(srv.URL+"/v1/detect/batch?model=montage-sft", "application/json",
		strings.NewReader(`{"sentences":["a","b","c"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResponse
	json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if len(batch.Results) != 3 || batch.Results[2].Label != 1 {
		t.Fatalf("batch via montage-sft = %+v", batch)
	}
}

func TestServerModelsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Add("m1", labelDetector{}, BatchConfig{MaxBatch: 8, Workers: 2})
	reg.Add("m2", labelDetector{}, BatchConfig{MaxBatch: 16, Workers: 1})
	s := NewServerRegistry(reg)
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Models) != 2 {
		t.Fatalf("models = %+v", out.Models)
	}
	if out.Models[0].Name != "m1" || !out.Models[0].Default || out.Models[0].MaxBatch != 8 {
		t.Fatalf("m1 info = %+v", out.Models[0])
	}
	if out.Models[1].Name != "m2" || out.Models[1].Default || out.Models[1].MaxBatch != 16 {
		t.Fatalf("m2 info = %+v", out.Models[1])
	}
}

// TestRegistrySwapZeroDrops is the hot-swap acceptance test: while client
// goroutines hammer one model, the detector is swapped repeatedly. Every
// request must succeed — none dropped, none failed — and by the end results
// must come from the final detector. Run under -race in CI.
func TestRegistrySwapZeroDrops(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("live", labelDetector{label: 0, delay: 200 * time.Microsecond}, BatchConfig{
		MaxBatch: 4, Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	s := NewServerRegistry(reg)
	defer s.Close()

	const (
		clients   = 8
		perClient = 150
		swaps     = 20
	)
	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		answered atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := s.DetectModelContext(context.Background(), "live", []string{"x", "y"})
				if err != nil || len(res) != 2 {
					failures.Add(1)
					continue
				}
				answered.Add(1)
			}
		}()
	}
	for swapped := 0; swapped < swaps; swapped++ {
		if err := reg.Swap("live", labelDetector{label: swapped % 2, delay: 200 * time.Microsecond}); err != nil {
			t.Fatalf("swap %d: %v", swapped, err)
		}
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests dropped across %d swaps", failures.Load(), clients*perClient, swaps)
	}
	if answered.Load() != clients*perClient {
		t.Fatalf("answered %d, want %d", answered.Load(), clients*perClient)
	}
	// After the last swap completes, traffic reaches the final detector.
	final := (swaps - 1) % 2
	res, err := s.DetectModelContext(context.Background(), "live", []string{"z"})
	if err != nil || res[0].Label != final {
		t.Fatalf("post-swap result = %+v, %v (want label %d)", res, err, final)
	}
}

// TestRegistrySwapDrainsInFlight checks the drain contract: a request
// in flight on the old engine when Swap begins completes on the old
// detector, and Swap does not return until it has.
func TestRegistrySwapDrainsInFlight(t *testing.T) {
	reg := NewRegistry()
	slow := labelDetector{label: 0, delay: 100 * time.Millisecond}
	if err := reg.Add("m", slow, BatchConfig{MaxBatch: 2, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	s := NewServerRegistry(reg)
	defer s.Close()

	type outcome struct {
		res []Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.DetectModelContext(context.Background(), "m", []string{"a"})
		done <- outcome{res, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the job reach the old engine

	start := time.Now()
	if err := reg.Swap("m", labelDetector{label: 1}); err != nil {
		t.Fatal(err)
	}
	swapTook := time.Since(start)

	out := <-done
	if out.err != nil || len(out.res) != 1 || out.res[0].Label != 0 {
		t.Fatalf("in-flight request = %+v, %v (want old model's label 0)", out.res, out.err)
	}
	// Swap must have waited for the old engine's in-flight batch.
	if swapTook < 50*time.Millisecond {
		t.Fatalf("Swap returned in %v; expected it to block on the old engine's drain", swapTook)
	}
	// New traffic lands on the new detector.
	res, err := s.Detect([]string{"b"})
	if err != nil || res[0].Label != 1 {
		t.Fatalf("post-swap = %+v, %v", res, err)
	}
}

func TestRegistryRemoveAndDefaultPromotion(t *testing.T) {
	reg := NewRegistry()
	reg.Add("zeta", labelDetector{label: 1}, BatchConfig{})
	reg.Add("alpha", labelDetector{label: 0}, BatchConfig{})
	if reg.Default() != "zeta" {
		t.Fatalf("default = %q", reg.Default())
	}
	if err := reg.Remove("zeta"); err != nil {
		t.Fatal(err)
	}
	if reg.Default() != "alpha" {
		t.Fatalf("default after remove = %q, want alpha", reg.Default())
	}
	if err := reg.Remove("zeta"); err == nil {
		t.Fatal("double remove succeeded")
	}
	if _, err := reg.Detector("zeta"); err == nil {
		t.Fatal("removed model still routable")
	}
	det, err := reg.Detector("") // default
	if err != nil {
		t.Fatal(err)
	}
	if det.(labelDetector).label != 0 {
		t.Fatal("default detector wrong after promotion")
	}
}

func TestRegistryCloseFailsLookups(t *testing.T) {
	reg := NewRegistry()
	reg.Add("m", labelDetector{}, BatchConfig{})
	s := NewServerRegistry(reg)
	s.Close()
	if _, err := s.Detect([]string{"a"}); err != ErrServerClosed {
		t.Fatalf("Detect after close = %v, want ErrServerClosed", err)
	}
	if err := reg.Add("late", labelDetector{}, BatchConfig{}); err != ErrServerClosed {
		t.Fatalf("Add after close = %v", err)
	}
	if err := reg.Swap("m", labelDetector{}); err != ErrServerClosed {
		t.Fatalf("Swap after close = %v", err)
	}
	s.Close() // idempotent
}

// TestMonitorRoutesByModel runs monitor ingest against a named model and
// checks trace state stays per-model.
func TestMonitorRoutesByModel(t *testing.T) {
	reg := NewRegistry()
	reg.Add("quiet", labelDetector{label: 0}, BatchConfig{Workers: 1})
	reg.Add("noisy", markDetector{}, BatchConfig{Workers: 1})
	s := NewServerRegistry(reg)
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	var body strings.Builder
	for i := 0; i < 3; i++ {
		body.WriteString(logparse.LogLine(streamJob(7, i, true)) + "\n")
	}
	resp, err := http.Post(srv.URL+"/v1/monitor?model=noisy", "text/plain", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	var rep MonitorResponse
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if rep.Processed != 3 || rep.Alerts != 3 {
		t.Fatalf("noisy report = %+v", rep.MonitorReport)
	}

	// The quiet model's tracker was untouched; the noisy model's holds the
	// trace.
	var models ModelsResponse
	mresp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(mresp.Body).Decode(&models)
	mresp.Body.Close()
	for _, m := range models.Models {
		want := 0
		if m.Name == "noisy" {
			want = 1
		}
		if m.ActiveTraces != want {
			t.Fatalf("model %s has %d active traces, want %d", m.Name, m.ActiveTraces, want)
		}
	}

	// ResetMonitor clears the noisy model's tracker so a replayed stream
	// starts a fresh window (and re-flags — the paired-replay contract).
	if err := reg.ResetMonitor("noisy"); err != nil {
		t.Fatal(err)
	}
	for _, m := range reg.Info() {
		if m.ActiveTraces != 0 {
			t.Fatalf("model %s holds %d traces after ResetMonitor", m.Name, m.ActiveTraces)
		}
	}
	if err := reg.ResetMonitor("ghost"); err == nil {
		t.Fatal("ResetMonitor(ghost) succeeded for unknown model")
	}

	// Unknown model on monitor → 404.
	resp, err = http.Post(srv.URL+"/v1/monitor?model=ghost", "text/plain", strings.NewReader("x=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost monitor status = %d", resp.StatusCode)
	}
}

// TestHealthReportsModels checks /healthz carries the registry size next to
// the default model's knobs.
func TestHealthReportsModels(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 3; i++ {
		reg.Add(fmt.Sprintf("m%d", i), labelDetector{}, BatchConfig{})
	}
	s := NewServerRegistry(reg)
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Models != 3 {
		t.Fatalf("health = %+v", health)
	}
}
