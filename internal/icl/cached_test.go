package icl

import (
	"testing"

	"repro/internal/logparse"
	"repro/internal/prompt"
)

func TestPromptPrefixSuffixRecomposition(t *testing.T) {
	exs := []prompt.Example{
		{Sentence: "runtime is 5.0", Label: "normal"},
		{Sentence: "runtime is 900.0", Label: "abnormal"},
	}
	q := "runtime is 7.0"
	recomposed := prompt.FewShotPrefix(exs) + " " + prompt.QuerySuffix(q)
	if recomposed != prompt.FewShot(exs, q) {
		t.Fatalf("prefix+suffix != full prompt:\n%q\n%q", recomposed, prompt.FewShot(exs, q))
	}
	// Zero-shot too.
	recomposed = prompt.FewShotPrefix(nil) + " " + prompt.QuerySuffix(q)
	if recomposed != prompt.FewShot(nil, q) {
		t.Fatal("zero-shot prefix+suffix != full prompt")
	}
}

// TestEvaluateCachedMatchesUncached is the end-to-end equivalence check:
// Evaluate must produce exactly the predictions of the uncached training
// forward over full prompts.
func TestEvaluateCachedMatchesUncached(t *testing.T) {
	d, ds := testDetector(t)
	exs := PromptExamples(SelectExamples(ds.Train, 4, Mixed, 3))
	jobs := ds.Test[:25]
	if got, want := Evaluate(d, jobs, exs), refConfusion(d, jobs, exs); got != want {
		t.Fatalf("cached confusion %+v != uncached %+v", got, want)
	}
}

func TestAnomalyScoresCachedMatchesUncached(t *testing.T) {
	d, ds := testDetector(t)
	exs := PromptExamples(SelectExamples(ds.Train, 4, Mixed, 3))
	jobs := ds.Test[:15]
	_, got := AnomalyScores(d, jobs, exs)
	for i, j := range jobs {
		_, want := refClassify(d, logparse.Sentence(j), exs)
		if diff := got[i] - float64(want[1]); diff < -1e-4 || diff > 1e-4 {
			t.Fatalf("score[%d]: cached %v vs uncached %v", i, got[i], want[1])
		}
	}
}

func TestEvaluateCachedZeroShot(t *testing.T) {
	d, ds := testDetector(t)
	jobs := ds.Test[:10]
	if got, want := Evaluate(d, jobs, nil), refConfusion(d, jobs, nil); got != want {
		t.Fatalf("zero-shot cached %+v != uncached %+v", got, want)
	}
}
