package icl

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/prompt"
)

// CoTResult is a chain-of-thought classification (Figure 13): the final
// label plus the step-by-step reasoning that compares each feature of the
// query against the class-conditional statistics visible in the prompt.
type CoTResult struct {
	// Label is the model's prediction (0 normal, 1 abnormal).
	Label int
	// Confidence is the constrained probability of the predicted label.
	Confidence float32
	// Steps are the numbered reasoning lines.
	Steps []string
	// Text is the full rendered output, headed by "sure, here's the
	// step-by-step reasoning:" as in Figure 13.
	Text string
	// Prompt is the CoT prompt presented to the model.
	Prompt string
}

// ChainOfThought classifies query with few-shot context ctx and renders an
// interpretable reasoning trace.
//
// Substitution note: a 7B instruction-tuned model free-forms
// this reasoning; at repository scale the decoder supplies the decision
// (constrained decoding over the label words under the CoT prompt) while the
// reasoning narrative is rendered from the same class-conditional feature
// statistics the paper's example walks through — mean comparison per
// feature, then a verdict. The structure of Figure 13's output is preserved
// exactly.
func ChainOfThought(d *Detector, query flowbench.Job, ctx []flowbench.Job) CoTResult {
	examples := PromptExamples(ctx)
	cotPrompt := prompt.CoT(examples, logparse.Sentence(query))
	labels, probs := d.classifyJobs([]flowbench.Job{query}, examples)
	label := labels[0]

	normalMean, abnormalMean, haveBoth := classMeans(ctx)
	var steps []string
	steps = append(steps, "compare the given job's features with the mean of the normal and abnormal jobs in the context.")
	votesNormal, votesAbnormal := 0, 0
	if haveBoth {
		for i, name := range flowbench.FeatureNames {
			v := query.Features[i]
			dn := math.Abs(v - normalMean[i])
			da := math.Abs(v - abnormalMean[i])
			rel := math.Abs(dn-da) / math.Max(1e-9, math.Max(dn, da))
			switch {
			case rel < 0.15:
				steps = append(steps, fmt.Sprintf(
					"the %s of the given job is %s, which is close to both the normal mean (%s) and the abnormal mean (%s), so it does not provide clear distinction.",
					name, logparse.FormatValue(v), logparse.FormatValue(normalMean[i]), logparse.FormatValue(abnormalMean[i])))
			case dn < da:
				votesNormal++
				steps = append(steps, fmt.Sprintf(
					"the %s of the given job is %s, which is closer to the mean %s of the normal jobs (%s) than the abnormal jobs (%s).",
					name, logparse.FormatValue(v), name, logparse.FormatValue(normalMean[i]), logparse.FormatValue(abnormalMean[i])))
			default:
				votesAbnormal++
				steps = append(steps, fmt.Sprintf(
					"however, the %s of the given job is %s, which is closer to the mean %s of the abnormal jobs (%s) than the normal jobs (%s).",
					name, logparse.FormatValue(v), name, logparse.FormatValue(abnormalMean[i]), logparse.FormatValue(normalMean[i])))
			}
		}
		steps = append(steps, fmt.Sprintf(
			"based on these comparisons, %d features look normal and %d look abnormal.", votesNormal, votesAbnormal))
	} else {
		steps = append(steps, "the context lacks examples of both classes, so the decision relies on the model's prior over the feature magnitudes.")
	}
	verdict := "normal"
	if label == 1 {
		verdict = "abnormal"
	}
	closeness := ""
	if haveBoth && votesNormal > 0 && votesAbnormal > 0 {
		closeness = ", but it's a close call"
	}
	steps = append(steps, fmt.Sprintf("therefore, the category is likely %s%s.", verdict, closeness))

	var sb strings.Builder
	sb.WriteString("sure, here's the step-by-step reasoning:\n")
	for i, s := range steps {
		fmt.Fprintf(&sb, "%d. %s\n", i+1, s)
	}
	return CoTResult{
		Label:      label,
		Confidence: probs[0][label],
		Steps:      steps,
		Text:       sb.String(),
		Prompt:     cotPrompt,
	}
}

// classMeans computes per-feature means of the normal and abnormal jobs in
// ctx; haveBoth is false unless both classes are present.
func classMeans(ctx []flowbench.Job) (normal, abnormal [flowbench.NumFeatures]float64, haveBoth bool) {
	var nN, nA int
	for _, j := range ctx {
		if j.Label == 0 {
			nN++
			for i, v := range j.Features {
				normal[i] += v
			}
		} else {
			nA++
			for i, v := range j.Features {
				abnormal[i] += v
			}
		}
	}
	if nN == 0 || nA == 0 {
		return normal, abnormal, false
	}
	for i := range normal {
		normal[i] /= float64(nN)
		abnormal[i] /= float64(nA)
	}
	return normal, abnormal, true
}
