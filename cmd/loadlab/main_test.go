package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/scenario"
)

func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, name := range []string{"steady", "bursty", "trace-heavy", "line-heavy", "drift", "near-dup"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

// pins are the columns of one report row that are the same on every run and
// every machine: asserted with ==, four-decimal metrics as the report used to
// print them.
type pins map[string]float64

// and returns p plus more, for the rows that repeat another row's columns.
func (p pins) and(more pins) pins {
	out := maps.Clone(p)
	maps.Copy(out, more)
	return out
}

// servedTiming are the columns of a served row that move with the runner:
// checked present and non-negative, never pinned. batch_occupancy and
// max_queue_len count how requests happened to coalesce (0…140 across runs
// of one command line) — timing in disguise.
var servedTiming = []string{
	"client_p50_ms", "client_p99_ms", "queue_wait_p50_ms", "queue_wait_p99_ms",
	"compute_p50_ms", "compute_p99_ms", "batch_occupancy", "max_queue_len",
}

// TestRunSmoke is the serving stack's smoke gate: one small detector, trained
// once, replayed through the four loadlab configurations (plain, cascade
// pairs, chaos, gateway fleet) at seconds scale, every deterministic report
// column pinned. The detector is the cascade drill's recipe (1000-genome,
// seed 9 — also internal/core's cached fixture) because it raises alerts: on
// the earlier predict-future-sales recipe the monitor rows read 0 alerts and
// 0 flagged traces, so fleet-vs-single-node parity compared nothing. The
// pinned values are the cascade config's 2026-08-08 baseline
// (`git show c02e048:cascade-smoke-baseline.json`), which the plain and
// gateway rows reproduce column for column.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a detector and replays four configurations")
	}
	det, _, err := core.Train(core.Options{
		Approach: core.SFT, Workflow: flowbench.Genome, Model: "distilbert-base-uncased",
		TrainSize: 400, PretrainSteps: 120, Epochs: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	artifact := filepath.Join(t.TempDir(), "smoke.artifact")
	if err := core.SaveDetectorFile(artifact, det); err != nil {
		t.Fatal(err)
	}

	steady := pins{
		"events": 200, "requests": 200, "errors": 0, "dedup_saved": 0,
		"roc_auc": 0.974, "avg_precision": 0.83, "line_f1": 0.9157, "trace_f1": 0.8,
	}
	// dedup_saved 87: the near-dup scenario exercises the dedup coalescer.
	nearDup := pins{
		"events": 200, "requests": 45, "errors": 0, "dedup_saved": 87,
		"roc_auc": 0.5, "avg_precision": 0, "line_f1": 0, "trace_f1": 0,
	}
	monitor := pins{"events": 200, "alerts": 45, "flagged_traces": 5, "malformed": 0}
	// A +gw row repeats its single-node row except for dedup_saved, which is
	// summed over the replicas: a hedged request is computed, and its repeats
	// saved, on two of them (87, 90, 92 across runs under the race detector).
	fleet := func(single pins) pins {
		out := single.and(pins{"replicas": 3, "error_rate": 0})
		delete(out, "dedup_saved")
		return out
	}
	// The seed-9 near-dup stream carries no anomalies, so every scorer is at
	// chance on it.
	chance := pins{"events": 200, "roc_auc": 0.5, "avg_precision": 0, "line_f1": 0, "trace_f1": 0}

	// The gateway row replays at speed 2, not 200: its pinned columns hold only
	// while the fleet keeps up. A saturated replica fails its /readyz probes,
	// the gateway ejects it and sheds (docs/RELIABILITY.md, "Known defects"),
	// and shed requests move errors and quality. The race detector makes the
	// replicas ~10× slower, so the schedule slows with them.
	fleetSpeed := "2"
	if raceEnabled {
		fleetSpeed = "0.25"
	}

	for _, row := range []struct {
		name  string
		args  []string
		want  map[string]pins
		check func(t *testing.T, got map[string]map[string]float64)
	}{
		{
			name: "plain",
			args: []string{"-speed", "200", "-scenarios", "steady,near-dup", "-monitor", "steady"},
			want: map[string]pins{
				"LoadLab/steady/sft":        steady,
				"LoadLabMonitor/steady/sft": monitor,
				"LoadLab/steady/pca":        {"events": 200, "roc_auc": 0.6741, "avg_precision": 0.285, "line_f1": 0.2553, "trace_f1": 0.4444},
				"LoadLab/steady/iforest":    {"events": 200, "roc_auc": 0.8233, "avg_precision": 0.5284, "line_f1": 0.2222, "trace_f1": 0.6667},
				"LoadLab/steady/mlpae":      {"events": 200, "roc_auc": 0.649, "avg_precision": 0.2957, "line_f1": 0.2947, "trace_f1": 0.4},
				"LoadLab/near-dup/sft":      nearDup,
				"LoadLab/near-dup/pca":      chance,
				"LoadLab/near-dup/iforest":  chance,
				"LoadLab/near-dup/mlpae":    chance,
			},
		},
		{
			name: "cascade",
			args: []string{"-speed", "200", "-scenarios", "steady,near-dup", "-cascade", "ngram", "-baselines", "none"},
			want: map[string]pins{
				"LoadLab/steady/sft":        steady,
				"LoadLabMonitor/steady/sft": monitor,
				"LoadLab/steady/sft+cascade": {
					"events": 200, "requests": 200, "errors": 0, "dedup_saved": 0,
					"roc_auc": 0.9656, "avg_precision": 0.7402, "line_f1": 0.9024, "trace_f1": 0.8,
					"cascade_evaluated": 200, "cascade_short_circuited": 188, "cascade_pass_fraction": 0.06,
					"verdict_agreement": 0.995, "trace_flags_equal": 1,
				},
				"LoadLabMonitor/steady/sft+cascade": {"events": 200, "alerts": 44, "flagged_traces": 5, "malformed": 0},
				"LoadLab/near-dup/sft":              nearDup,
				"LoadLab/near-dup/sft+cascade": nearDup.and(pins{
					"cascade_evaluated": 113, "cascade_short_circuited": 108, "cascade_pass_fraction": 0.0442,
					"verdict_agreement": 1, "trace_flags_equal": 1,
				}),
			},
		},
		{
			// Speed 1 keeps the compressed schedule ~0.5s wide so the fault
			// window (its middle third) actually brackets a run of requests;
			// heavy compression would shrink the window below arrival jitter.
			// Only the traffic counts are pinned: a retry that lands inside
			// the window is itself perturbed (18 or 19 faults across runs),
			// and a request that fails or is answered by the brownout
			// fallback moves the quality columns.
			name: "chaos",
			args: []string{
				"-speed", "1", "-scenarios", "chaos-steady", "-monitor", "none", "-baselines", "none",
				"-shed-depth", "64", "-brownout", "48", "-deadline-ms", "500", "-retries",
			},
			want: map[string]pins{"LoadLabChaos/steady/sft": {"events": 200, "requests": 200}},
			check: func(t *testing.T, got map[string]map[string]float64) {
				row := got["LoadLabChaos/steady/sft"]
				if row["faults_injected"] <= 0 {
					t.Errorf("chaos row recorded no injected faults: %v", row)
				}
				for _, key := range []string{"pre_p99_ms", "during_p99_ms", "post_p99_ms"} {
					if _, ok := row[key]; !ok {
						t.Errorf("chaos row missing %s", key)
					}
				}
				// With retries on, the vast majority of requests must still be
				// answered (faults hit 1 in 4 requests in the middle third).
				if errRate := row["errors"] / row["requests"]; errRate > 0.25 {
					t.Errorf("error rate %.2f exceeds 0.25 despite retries", errRate)
				}
			},
		},
		{
			name: "gateway",
			args: []string{"-speed", fleetSpeed, "-scenarios", "steady,near-dup", "-gateway", "3", "-baselines", "none"},
			want: map[string]pins{
				"LoadLab/steady/sft":           steady,
				"LoadLabMonitor/steady/sft":    monitor,
				"LoadLab/steady/sft+gw":        fleet(steady),
				"LoadLabMonitor/steady/sft+gw": monitor,
				"LoadLab/near-dup/sft":         nearDup,
				"LoadLab/near-dup/sft+gw":      fleet(nearDup),
			},
			check: func(t *testing.T, got map[string]map[string]float64) {
				// The fleet-merged monitor verdicts must be the single node's,
				// and must be verdicts: 0 == 0 compares nothing.
				single, gw := got["LoadLabMonitor/steady/sft"], got["LoadLabMonitor/steady/sft+gw"]
				for _, key := range []string{"alerts", "flagged_traces"} {
					if gw[key] != single[key] || gw[key] <= 0 {
						t.Errorf("monitor %s: %v through the gateway, %v single-node; want equal and > 0", key, gw[key], single[key])
					}
				}
			},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			if raceEnabled && row.name == "cascade" {
				t.Skip("calibration scores the whole training split, ~70 s under the race detector; TestCascadeParityEndToEnd runs the gate under it")
			}
			out := filepath.Join(t.TempDir(), "report.json")
			args := append([]string{
				"-load", artifact, "-detector", "sft", "-events", "200",
				"-workflow", "1000-genome", "-seed", "9", "-out", out,
			}, row.args...)
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var report scenario.BenchReport
			if err := json.Unmarshal(data, &report); err != nil {
				t.Fatalf("report is not valid JSON: %v\n%s", err, data)
			}

			got := map[string]map[string]float64{}
			for _, b := range report.Entries {
				got[b.Name] = b.Extra
				want, ok := row.want[b.Name]
				if !ok {
					t.Errorf("unexpected report row %s", b.Name)
					continue
				}
				for col, v := range want {
					if have, ok := b.Extra[col]; !ok || math.Round(have*1e4)/1e4 != v {
						t.Errorf("%s: %s = %v (present %v), pinned %v", b.Name, col, have, ok, v)
					}
				}
				if _, served := want["requests"]; served {
					for _, col := range servedTiming {
						if have, ok := b.Extra[col]; !ok || have < 0 {
							t.Errorf("%s: timing column %s = %v (present %v)", b.Name, col, have, ok)
						}
					}
				}
				if b.NsPerOp <= 0 || b.Extra["lines_per_sec"] <= 0 {
					t.Errorf("%s: ns_per_op %v, lines_per_sec %v not positive", b.Name, b.NsPerOp, b.Extra["lines_per_sec"])
				}
			}
			for name := range row.want {
				if _, ok := got[name]; !ok {
					t.Errorf("report missing row %s", name)
				}
			}
			if row.check != nil {
				row.check(t, got)
			}
		})
	}
}

func TestRunChaosNeedsInProcessServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenarios", "chaos-steady", "-addr", "http://127.0.0.1:1"}, &stdout, &stderr); err == nil {
		t.Fatal("chaos against -addr should fail fast")
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenarios", "nope"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown scenario should fail")
	}
	if err := run([]string{"-monitor", "nope", "-scenarios", "steady"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown monitor scenario should fail")
	}
}
