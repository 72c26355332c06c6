package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logparse"
	"repro/internal/tensor"
)

// oracleDetector answers with the stream's own ground truth: a perfect
// detector that needs no training, so replay plumbing and quality scoring can
// be verified exactly (AUC 1, line F1 1, trace F1 1).
type oracleDetector struct {
	labels map[string]int
}

func newOracle(streams ...*Stream) *oracleDetector {
	o := &oracleDetector{labels: map[string]int{}}
	for _, s := range streams {
		for _, ev := range s.Events {
			o.labels[logparse.Sentence(ev.Job)] = ev.Job.Label
		}
	}
	return o
}

func (o *oracleDetector) Detect(ss []string, _ *tensor.Workspace) ([]core.Result, error) {
	out := make([]core.Result, len(ss))
	for i, s := range ss {
		out[i] = core.Result{Label: 0, Score: 0.1}
		if o.labels[s] == 1 {
			out[i] = core.Result{Label: 1, Score: 0.9}
		}
	}
	return out, nil
}

func (o *oracleDetector) Approach() core.Approach   { return core.SFT }
func (o *oracleDetector) Precision() core.Precision { return core.PrecisionFP32 }

func replayCfg(url string) ReplayConfig {
	return ReplayConfig{BaseURL: url, Speed: 1000, Timeout: 10 * time.Second}
}

func TestReplayOracleScoresPerfectly(t *testing.T) {
	d, _ := Lookup("steady")
	s := d.Generate(tinyCfg())
	srv := core.NewServerWith(newOracle(s), core.BatchConfig{MaxBatch: 64, Workers: 2})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	res, err := Replay(context.Background(), s, replayCfg(hs.URL))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Scenario != "steady" || res.Events != len(s.Events) {
		t.Fatalf("result identity wrong: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d failed requests", res.Errors)
	}
	if res.Quality.AUC != 1 || res.Quality.LineF1 != 1 {
		t.Errorf("oracle should be perfect per line: AUC=%v F1=%v", res.Quality.AUC, res.Quality.LineF1)
	}
	if res.Quality.TraceF1 != 1 {
		t.Errorf("oracle should be perfect per trace: TraceF1=%v", res.Quality.TraceF1)
	}
	if res.LinesPerSec <= 0 || res.WallSeconds <= 0 {
		t.Errorf("throughput not measured: %+v", res)
	}
	if res.ClientP99Ms < res.ClientP50Ms {
		t.Errorf("latency percentiles inverted: p50=%v p99=%v", res.ClientP50Ms, res.ClientP99Ms)
	}
	if res.Server.Requests == 0 || res.Server.Sentences != int64(res.Events) {
		t.Errorf("server stats not collected: %+v", res.Server)
	}
}

func TestReplayNearDupExercisesDedup(t *testing.T) {
	d, _ := Lookup("near-dup")
	s := d.Generate(tinyCfg())
	srv := core.NewServerWith(newOracle(s), core.BatchConfig{MaxBatch: 64, Workers: 2})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	res, err := Replay(context.Background(), s, replayCfg(hs.URL))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d failed requests", res.Errors)
	}
	if res.Server.DedupSaved == 0 {
		t.Error("near-dup replay should hit the sentence-dedup coalescer, DedupSaved = 0")
	}
	if res.Quality.AUC != 1 {
		t.Errorf("oracle AUC = %v on near-dup", res.Quality.AUC)
	}
}

func TestReplayMonitorReportsTraffic(t *testing.T) {
	d, _ := Lookup("steady")
	s := d.Generate(tinyCfg())
	srv := core.NewServerWith(newOracle(s), core.BatchConfig{MaxBatch: 64, Workers: 2})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	res, err := ReplayMonitor(context.Background(), s, replayCfg(hs.URL))
	if err != nil {
		t.Fatalf("ReplayMonitor: %v", err)
	}
	if res.Report.Processed != len(s.Events) {
		t.Errorf("monitor processed %d of %d lines", res.Report.Processed, len(s.Events))
	}
	if res.Report.Malformed != 0 {
		t.Errorf("%d malformed lines", res.Report.Malformed)
	}
	if res.Report.Alerts == 0 {
		t.Error("oracle over an anomalous stream should raise alerts")
	}
	if res.Report.FlaggedTraces == 0 {
		t.Error("expected at least one flagged trace")
	}
}

func TestReplayCancellation(t *testing.T) {
	d, _ := Lookup("steady")
	s := d.Generate(tinyCfg())
	srv := core.NewServerWith(newOracle(s), core.BatchConfig{MaxBatch: 64, Workers: 1})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := replayCfg(hs.URL)
	cfg.Speed = 1 // real-time: without cancellation this would take seconds
	if _, err := Replay(ctx, s, cfg); err == nil {
		t.Fatal("cancelled replay should return an error")
	}
}

func TestEvaluateScoresMatchesOracle(t *testing.T) {
	d, _ := Lookup("steady")
	s := d.Generate(tinyCfg())
	scores := make([]float64, len(s.Events))
	preds := make([]int, len(s.Events))
	for i, ev := range s.Events {
		preds[i] = ev.Job.Label
		scores[i] = float64(ev.Job.Label)
	}
	q := EvaluateScores(s, scores, preds, core.TracePolicy{})
	if q.AUC != 1 || q.LineF1 != 1 || q.TraceF1 != 1 {
		t.Errorf("perfect scores should yield perfect quality: %+v", q)
	}

	// Inverted predictions should crater every metric.
	for i := range preds {
		preds[i] = 1 - preds[i]
		scores[i] = 1 - scores[i]
	}
	q = EvaluateScores(s, scores, preds, core.TracePolicy{})
	if q.AUC != 0 || q.LineF1 != 0 {
		t.Errorf("inverted scores should yield zero quality: %+v", q)
	}
}

// TestBenchReportWrite decodes a written report through the keys readers of
// `loadlab -out` parse.
func TestBenchReportWrite(t *testing.T) {
	r := &BenchReport{
		Recorded: "2026-01-01T00:00:00Z",
		CPU:      "test",
		Command:  "loadlab",
		Entries: []BenchEntry{
			{Name: "LoadLab/steady/sft", NsPerOp: 1234.5, Extra: map[string]float64{"roc_auc": 0.9876, "events": 400}},
			{Name: "LoadLab/steady/pca", NsPerOp: 10},
		},
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Recorded   string `json:"recorded"`
		CPU        string `json:"cpu"`
		Command    string `json:"command"`
		Benchmarks []struct {
			Name    string             `json:"name"`
			NsPerOp float64            `json:"ns_per_op"`
			Extra   map[string]float64 `json:"extra"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if got.Recorded != r.Recorded || got.CPU != r.CPU || got.Command != r.Command || len(got.Benchmarks) != len(r.Entries) {
		t.Fatalf("header or row count lost: %+v", got)
	}
	for i, e := range r.Entries {
		b := got.Benchmarks[i]
		if b.Name != e.Name || b.NsPerOp != e.NsPerOp || !reflect.DeepEqual(b.Extra, e.Extra) {
			t.Errorf("row %d: got %+v, want %+v", i, b, e)
		}
	}
}
