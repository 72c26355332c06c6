package repro

import (
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/scenario"
)

// TestBrownoutGateBeatsPCA is the measurement behind the brownout tier's
// choice of scorer: on every generated scenario stream it scores the lines
// the way the tier answers them — the cascade gate alone, fitted against the
// e2e detector over the full Genome training split as anomalyd -cascade
// fits it, labelling by its majority rule — against the PCA baseline the
// tier used before, fitted and calibrated as loadlab's baseline rows are.
// The gate must beat PCA on line F1 and match or beat it on trace F1 on all
// 18 streams. The log prints the table docs/RELIABILITY.md records, with two
// other gate rules beside the majority rule.
func TestBrownoutGateBeatsPCA(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det := e2eDetector(t)
	ds := flowbench.Generate(flowbench.Genome, 42)
	gate, err := core.FitCascade(det, cascade.Config{}, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	pca, err := baselines.FitScorer("pca", ds.Train, 42)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := baselines.CalibrateThreshold(pca.Score(ds.Train), baselines.AnomalyRate(ds.Train))

	p := gate.Params()
	rules := []struct {
		name string
		flag func(score float64) bool
	}{
		{"prob>=0.5", func(s float64) bool { return gate.Prob(s) >= 0.5 }},
		{"midpoint", func(s float64) bool { return s >= p.Low/2+p.High/2 }},
		{"majority", func(s float64) bool { return gate.Majority(s) == 1 }},
	}
	t.Logf("gate low %.4f high %.4g; columns line F1 / trace F1", p.Low, p.High)
	t.Logf("%-12s %5s  %-13s %-13s %-13s %-13s", "scenario", "seed", "pca", rules[0].name, rules[1].name, rules[2].name)
	for _, seed := range []uint64{42, 7, 11} {
		for _, d := range scenario.All() {
			s := d.Generate(scenario.Config{Workflow: flowbench.Genome, Events: 2000, Seed: seed})
			jobs := make([]flowbench.Job, len(s.Events))
			gateScores := make([]float64, len(s.Events))
			for i, line := range s.Sentences() {
				// Generated sentences always parse; a line that did not would
				// be answered {0, 0} by the tier and score as a zero job here.
				logparse.ScanSentence(line, &jobs[i].Features)
				gateScores[i], _ = gate.ScoreSentence(line)
			}
			pcaScores := pca.Score(jobs)
			base := scenario.EvaluateScores(s, pcaScores, baselines.Threshold(pcaScores, cutoff), core.TracePolicy{})
			row := fmt.Sprintf("%-12s %5d  %.3f / %.3f", d.Name, seed, base.LineF1, base.TraceF1)
			var q scenario.Quality
			for _, r := range rules {
				preds := make([]int, len(gateScores))
				for i, sc := range gateScores {
					if r.flag(sc) {
						preds[i] = 1
					}
				}
				q = scenario.EvaluateScores(s, gateScores, preds, core.TracePolicy{})
				row += fmt.Sprintf("  %.3f / %.3f", q.LineF1, q.TraceF1)
			}
			t.Log(row)
			// q is the majority rule's, the last column.
			if q.LineF1 <= base.LineF1 || q.TraceF1 < base.TraceF1 {
				t.Errorf("%s seed %d: gate line F1 %.3f, trace F1 %.3f; pca %.3f, %.3f",
					d.Name, seed, q.LineF1, q.TraceF1, base.LineF1, base.TraceF1)
			}
		}
	}
}
