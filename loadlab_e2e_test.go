package repro

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/scenario"
)

// e2eArtifactPath shares the core package's cached test artifact: the training
// recipe below is identical to internal/core's fixture, so a CI cache hit
// there is a cache hit here.
const e2eArtifactPath = "internal/core/testdata/cache/sft-distilbert-tiny.artifact"

func e2eDetector(t *testing.T) core.Detector {
	t.Helper()
	useCache := os.Getenv("REPRO_DETECTOR_CACHE") != ""
	if useCache {
		if det, _, err := core.LoadDetectorFile(e2eArtifactPath); err == nil {
			return det
		}
	}
	det, report, err := core.Train(core.Options{
		Approach: core.SFT, Model: "distilbert-base-uncased",
		TrainSize: 400, PretrainSteps: 120, Epochs: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Test.Accuracy() < 0.6 {
		t.Fatalf("e2e detector too weak: %s", report.Test)
	}
	if useCache {
		if err := os.MkdirAll(filepath.Dir(e2eArtifactPath), 0o755); err == nil {
			_ = core.SaveDetectorFile(e2eArtifactPath, det, nil)
		}
	}
	return det
}

// TestLoadLabEndToEnd is the full production loop: train → save artifact →
// load artifact → serve over HTTP → replay the baseline scenario with the
// load lab → compare detection quality against a seed baseline scored on the
// same stream. This is what `anomalyd -train-out` + `anomalyd -load` +
// `loadlab -addr` compose to, in one process.
func TestLoadLabEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}

	// Train (or load the CI-cached fixture), then force the artifact
	// boundary: what serves below is a detector deserialized from disk.
	art := filepath.Join(t.TempDir(), "detector.artifact")
	if err := core.SaveDetectorFile(art, e2eDetector(t), nil); err != nil {
		t.Fatal(err)
	}
	det, _, err := core.LoadDetectorFile(art)
	if err != nil {
		t.Fatal(err)
	}

	reg := core.NewRegistry()
	if err := reg.Add("genome-sft", det, core.BatchConfig{MaxBatch: 64, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	srv := core.NewServerRegistry(reg)
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// The baseline scenario, compressed hard: replay is compute-bound here,
	// not schedule-bound.
	d, err := scenario.Lookup("steady")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.Config{Workflow: flowbench.Genome, Events: 800, Seed: 42, Rate: 400}
	s := d.Generate(cfg)

	// The generous per-request timeout matters under -race: the whole
	// schedule fires almost at once, so tail requests legitimately sit in
	// queue for minutes behind race-slowed forward passes. Errors==0 below
	// asserts delivery, not latency.
	res, err := scenario.Replay(context.Background(), s, scenario.ReplayConfig{
		BaseURL: hs.URL, Model: "genome-sft", Speed: 500, Timeout: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d failed requests", res.Errors)
	}
	if res.Server.Sentences != int64(res.Events) {
		t.Errorf("server processed %d sentences for %d events", res.Server.Sentences, res.Events)
	}

	// Seed baseline on the same stream, fitted on the same workflow's train
	// split — the cheap comparison row of the lab report.
	ds := flowbench.Generate(cfg.Workflow, cfg.Seed)
	pca, err := baselines.FitScorer("pca", ds.Train, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]flowbench.Job, len(s.Events))
	for i, ev := range s.Events {
		jobs[i] = ev.Job
	}
	scores := pca.Score(jobs)
	cut := baselines.CalibrateThreshold(pca.Score(ds.Train), baselines.AnomalyRate(ds.Train))
	pcaQ := scenario.EvaluateScores(s, scores, baselines.Threshold(scores, cut), core.TracePolicy{})

	t.Logf("served AUC %.4f (trace F1 %.4f), PCA AUC %.4f (trace F1 %.4f)",
		res.Quality.AUC, res.Quality.TraceF1, pcaQ.AUC, pcaQ.TraceF1)
	if res.Quality.AUC < pcaQ.AUC {
		t.Errorf("trained detector (AUC %.4f) should beat the PCA baseline (AUC %.4f) on the steady scenario",
			res.Quality.AUC, pcaQ.AUC)
	}
	if res.Quality.AUC < 0.7 {
		t.Errorf("served AUC %.4f below sanity floor 0.7", res.Quality.AUC)
	}

	// In-order alert delivery: stream the same lines through the monitor
	// with a recording sink. Alerts must arrive as a subsequence of the
	// input — the collector goroutine preserves input order.
	var alertLines []string
	sink := core.SinkFuncs{OnAlert: func(a core.Alert) { alertLines = append(alertLines, a.Line) }}
	var input strings.Builder
	for _, ev := range s.Events {
		input.WriteString(ev.Line)
		input.WriteByte('\n')
	}
	report, err := srv.MonitorIngestModel(context.Background(), "genome-sft", strings.NewReader(input.String()), true, sink)
	if err != nil {
		t.Fatal(err)
	}
	if report.Processed != len(s.Events) {
		t.Errorf("monitor processed %d of %d lines", report.Processed, len(s.Events))
	}
	if len(alertLines) == 0 {
		t.Fatal("no alerts on an anomalous stream")
	}
	if len(alertLines) != report.Alerts {
		t.Errorf("sink saw %d alerts, report says %d", len(alertLines), report.Alerts)
	}
	pos := 0
	for i, line := range alertLines {
		found := false
		for pos < len(s.Events) {
			if s.Events[pos].Line == line {
				found = true
				pos++
				break
			}
			pos++
		}
		if !found {
			t.Fatalf("alert %d (%q) arrived out of input order", i, line)
		}
	}
}
