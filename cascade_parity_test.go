package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/scenario"
)

// traceFlags folds per-line verdicts into per-trace flags under policy — the
// quantity that pages an operator, and the one the cascade must never move.
func traceFlags(s *scenario.Stream, res []core.Result, policy core.TracePolicy) map[int]bool {
	jobs := make(map[int]int)
	anom := make(map[int]int)
	for i, ev := range s.Events {
		jobs[ev.Job.TraceID]++
		anom[ev.Job.TraceID] += res[i].Label
	}
	out := make(map[int]bool, len(jobs))
	for id, n := range jobs {
		out[id] = policy.Flagged(n, anom[id])
	}
	return out
}

// TestCascadeParityEndToEnd is the cascade acceptance gate: on every lab
// scenario, serving with the calibrated stage-1 gate must agree with
// transformer-only serving on at least 99% of per-line verdicts and on
// *every* trace flag — on both the batch detect path and the streaming
// monitor path — while actually short-circuiting a nonzero share of traffic.
func TestCascadeParityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det := e2eDetector(t)
	ds := flowbench.Generate(flowbench.Genome, 42)
	gate, err := core.FitCascade(det, cascade.Config{}, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gate: recall=%.3f positives=%d low=%.4f",
		gate.TargetRecall(), gate.Positives(), gate.Low())

	reg := core.NewRegistry()
	if err := reg.Add("genome-sft", det, core.BatchConfig{MaxBatch: 64, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	srv := core.NewServerRegistry(reg)
	defer srv.Close()

	ctx := context.Background()
	policy := core.DefaultTracePolicy()
	totalShort := int64(0)
	for _, d := range scenario.All() {
		s := d.Generate(scenario.Config{Workflow: flowbench.Genome, Events: 400, Seed: 42, Rate: 400})
		sents := s.Sentences()

		if err := reg.SetCascade("genome-sft", nil); err != nil {
			t.Fatal(err)
		}
		base, err := srv.DetectContext(ctx, sents)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.SetCascade("genome-sft", gate); err != nil {
			t.Fatal(err)
		}
		if err := reg.ResetStats("genome-sft"); err != nil {
			t.Fatal(err)
		}
		casc, err := srv.DetectContext(ctx, sents)
		if err != nil {
			t.Fatal(err)
		}

		agree := 0
		for i := range base {
			if base[i].Label == casc[i].Label {
				agree++
			}
		}
		frac := float64(agree) / float64(len(base))
		st, err := reg.Stats("genome-sft")
		if err != nil {
			t.Fatal(err)
		}
		totalShort += st.CascadeShort
		t.Logf("%s: agreement %.4f (%d/%d), short-circuited %d/%d",
			d.Name, frac, agree, len(base), st.CascadeShort, st.CascadeEvaluated)
		if frac < 0.99 {
			t.Errorf("%s: verdict agreement %.4f below 0.99", d.Name, frac)
		}

		bf, cf := traceFlags(s, base, policy), traceFlags(s, casc, policy)
		for id, want := range bf {
			if cf[id] != want {
				t.Errorf("%s: trace %d flag flipped by the cascade (transformer-only %v)", d.Name, id, want)
			}
		}

		// Monitor path: same stream through the chunked monitor, flags must
		// latch for exactly the same traces with the gate on.
		var lines strings.Builder
		for _, ev := range s.Events {
			lines.WriteString(ev.Line)
			lines.WriteByte('\n')
		}
		monFlags := func(g *cascade.Gate) (map[int]bool, core.EngineStats) {
			flagged := make(map[int]bool)
			mon := core.NewServerWith(det, core.BatchConfig{MaxBatch: 64})
			defer mon.Close()
			if err := mon.Registry().SetCascade("", g); err != nil {
				t.Fatal(err)
			}
			_, err := mon.MonitorIngest(ctx, strings.NewReader(lines.String()), false,
				core.SinkFuncs{OnTrace: func(v core.TraceVerdict) { flagged[v.TraceID] = true }})
			if err != nil {
				t.Fatal(err)
			}
			st, err := mon.Registry().Stats("")
			if err != nil {
				t.Fatal(err)
			}
			return flagged, st
		}
		mBase, _ := monFlags(nil)
		mCasc, mStats := monFlags(gate)
		if mStats.CascadeEvaluated == 0 {
			t.Errorf("%s: monitor gate never evaluated", d.Name)
		}
		if len(mBase) != len(mCasc) {
			t.Errorf("%s: monitor flagged %d traces gated vs %d ungated", d.Name, len(mCasc), len(mBase))
		}
		for id := range mBase {
			if !mCasc[id] {
				t.Errorf("%s: monitor trace %d flagged only without the gate", d.Name, id)
			}
		}
	}
	if totalShort == 0 {
		t.Error("cascade never short-circuited a line on any scenario; parity is vacuous")
	}
}
