package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/logparse"
	"repro/internal/tensor"
)

// labelDetector is a fast stub whose every result carries a fixed label and
// score, so routing tests can tell which model answered.
type labelDetector struct {
	label int
	score float64
}

func (d labelDetector) Detect(ss []string, _ *tensor.Workspace) ([]Result, error) {
	return resultsOf(ss, func(string) Result { return Result{Label: d.label, Score: d.score} }), nil
}

func (d labelDetector) Approach() Approach   { return SFT }
func (d labelDetector) Precision() Precision { return PrecisionFP32 }

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

// TestRegistryCloseFailsLookups pins what a closed registry answers: detect
// calls and Add fail with errServerClosed, and Close is idempotent.
func TestRegistryCloseFailsLookups(t *testing.T) {
	reg := NewRegistry()
	reg.Add("m", labelDetector{}, BatchConfig{})
	s := NewServerRegistry(reg)
	s.Close()
	if _, err := s.DetectContext(context.Background(), []string{"a"}); err != errServerClosed {
		t.Fatalf("DetectContext after close = %v, want errServerClosed", err)
	}
	if err := reg.Add("late", labelDetector{}, BatchConfig{}); err != errServerClosed {
		t.Fatalf("Add after close = %v", err)
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
