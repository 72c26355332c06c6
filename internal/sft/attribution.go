package sft

import (
	"sort"
	"strings"

	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// FeatureAttribution quantifies how much each log feature contributed to a
// classification by occlusion: each feature clause is dropped from the
// sentence in turn and the change in the anomaly score is recorded. A large
// positive attribution means the feature's presence pushed the prediction
// toward abnormal — the "which feature tripped the alarm" question an
// operator asks after an alert, complementing the CoT narrative on the ICL
// side.
type FeatureAttribution struct {
	// Feature is the occluded feature's name.
	Feature string
	// Value is the feature's value in the job.
	Value float64
	// Delta is fullScore − occludedScore: the anomaly-score mass the
	// feature accounts for.
	Delta float64
}

// Attribute computes occlusion attributions for every feature of a job,
// returned in descending |Delta| order.
func Attribute(c *Classifier, j flowbench.Job) []FeatureAttribution {
	// The full sentence, then the sentence with each feature occluded.
	texts := []string{logparse.Sentence(j)}
	for i := range flowbench.FeatureNames {
		texts = append(texts, sentenceWithout(j, i))
	}
	_, probs := predict(c, texts)
	out := make([]FeatureAttribution, 0, flowbench.NumFeatures)
	for i, name := range flowbench.FeatureNames {
		out = append(out, FeatureAttribution{
			Feature: name,
			Value:   j.Features[i],
			Delta:   float64(probs[0][1]) - float64(probs[1+i][1]),
		})
	}
	sort.SliceStable(out, func(a, b int) bool {
		da, db := out[a].Delta, out[b].Delta
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		return da > db
	})
	return out
}

// sentenceWithout renders the job sentence with feature k's clause removed.
func sentenceWithout(j flowbench.Job, k int) string {
	var sb strings.Builder
	first := true
	for i := 0; i < flowbench.NumFeatures; i++ {
		if i == k {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		sb.WriteString(flowbench.FeatureNames[i])
		sb.WriteString(" is ")
		sb.WriteString(logparse.FormatValue(j.Features[i]))
	}
	return sb.String()
}

// TopCulprit returns the feature with the largest positive attribution (the
// strongest abnormal signal), or "" when no feature pushes abnormal.
func TopCulprit(attrs []FeatureAttribution) string {
	best := ""
	bestDelta := 0.0
	for _, a := range attrs {
		if a.Delta > bestDelta {
			bestDelta = a.Delta
			best = a.Feature
		}
	}
	return best
}
