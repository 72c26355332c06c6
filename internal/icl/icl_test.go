package icl

import (
	"strings"
	"testing"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/tokenizer"
)

// testDetector builds a small pre-trained decoder over a compact corpus.
func testDetector(t *testing.T) (*Detector, *flowbench.Dataset) {
	t.Helper()
	ds := flowbench.Generate(flowbench.Genome, 42).Subsample(300, 50, 80, 7)
	corpus := pretrain.BuildCorpus(pretrain.CorpusOptions{
		SentencesPerWorkflow: 60, ICLDocs: 30, ExamplesPerDoc: 3, Seed: 2,
	})
	corpus = append(corpus, logparse.Corpus(ds.Train)...)
	tok := tokenizer.Build(corpus)
	m := models.MustGet("gpt2").Build(tok.VocabSize())
	return NewDetector(m, tok), ds
}

func TestNewDetectorRejectsEncoder(t *testing.T) {
	tok := tokenizer.Build([]string{"a"})
	m := models.MustGet("bert-base-uncased").Build(tok.VocabSize())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for encoder model")
		}
	}()
	NewDetector(m, tok)
}

func TestSelectExamplesMixes(t *testing.T) {
	ds := flowbench.Generate(flowbench.Genome, 1).Subsample(200, 1, 1, 3)
	pool := ds.Train

	pos := SelectExamples(pool, 6, PositiveOnly, 5)
	for _, j := range pos {
		if j.Label != 1 {
			t.Fatal("PositiveOnly returned a normal job")
		}
	}
	neg := SelectExamples(pool, 6, NegativeOnly, 5)
	for _, j := range neg {
		if j.Label != 0 {
			t.Fatal("NegativeOnly returned an anomalous job")
		}
	}
	mixed := SelectExamples(pool, 6, Mixed, 5)
	n0, n1 := 0, 0
	for _, j := range mixed {
		if j.Label == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0 != 3 || n1 != 3 {
		t.Fatalf("Mixed selection unbalanced: %d/%d", n0, n1)
	}
}

func TestSelectExamplesDeterministic(t *testing.T) {
	ds := flowbench.Generate(flowbench.Genome, 1).Subsample(100, 1, 1, 3)
	a := SelectExamples(ds.Train, 4, Mixed, 9)
	b := SelectExamples(ds.Train, 4, Mixed, 9)
	for i := range a {
		if a[i].Features != b[i].Features {
			t.Fatal("example selection not deterministic")
		}
	}
}

func TestSelectExamplesEmptyClassPool(t *testing.T) {
	normalOnly := []flowbench.Job{{Label: 0}, {Label: 0}}
	if got := SelectExamples(normalOnly, 4, PositiveOnly, 1); len(got) != 0 {
		t.Fatalf("PositiveOnly from normal-only pool returned %d examples", len(got))
	}
	mixed := SelectExamples(normalOnly, 4, Mixed, 1)
	if len(mixed) != 2 { // only normal slots fill
		t.Fatalf("Mixed from normal-only pool returned %d examples", len(mixed))
	}
}

func TestMixString(t *testing.T) {
	if Mixed.String() != "mixed" || PositiveOnly.String() != "pos-only" || NegativeOnly.String() != "neg-only" {
		t.Fatal("mix names wrong")
	}
}

func TestClassifyReturnsValidDistribution(t *testing.T) {
	d, ds := testDetector(t)
	exs := PromptExamples(SelectExamples(ds.Train, 4, Mixed, 3))
	labels, probs := d.ClassifyBatchCachedWS(d.NewPromptCache(exs), []string{logparse.Sentence(ds.Test[0])}, nil)
	if label := labels[0]; label != 0 && label != 1 {
		t.Fatalf("label = %d", label)
	}
	sum := probs[0][0] + probs[0][1]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probs sum = %v", sum)
	}
}

func TestEvaluateCounts(t *testing.T) {
	d, ds := testDetector(t)
	conf := Evaluate(d, ds.Test[:20], nil)
	if conf.TP+conf.FP+conf.TN+conf.FN != 20 {
		t.Fatal("evaluate total mismatch")
	}
}

func TestFineTuneImprovesAccuracy(t *testing.T) {
	d, ds := testDetector(t)
	// Pre-train briefly so the model knows the log language and format.
	corpus := pretrain.BuildCorpus(pretrain.CorpusOptions{SentencesPerWorkflow: 40, ICLDocs: 40, ExamplesPerDoc: 3, Seed: 3})
	pretrain.CLM(d.Model, d.Tok, corpus, pretrain.Options{Steps: 150, LR: 3e-3, Seed: 4})

	exs := PromptExamples(SelectExamples(ds.Train, 4, Mixed, 5))
	before := Evaluate(d, ds.Test[:60], exs).Accuracy()

	cfg := DefaultFineTuneConfig()
	cfg.Steps = 250
	cfg.Quantize = false // keep full precision for the small test model
	res := FineTune(d, ds.Train, cfg)
	if res.TrainableParams == 0 || res.TrainableFraction() > 0.25 {
		t.Fatalf("LoRA fraction = %v (%d/%d)", res.TrainableFraction(), res.TrainableParams, res.TotalParams)
	}
	after := Evaluate(d, ds.Test[:60], exs).Accuracy()
	if after <= before-0.05 {
		t.Fatalf("fine-tuning hurt accuracy: %.3f -> %.3f", before, after)
	}
	if after < 0.55 {
		t.Fatalf("fine-tuned few-shot accuracy %.3f too low", after)
	}
}

func TestFineTuneQuantizeReportsMemory(t *testing.T) {
	d, ds := testDetector(t)
	cfg := DefaultFineTuneConfig()
	cfg.Steps = 5
	cfg.Quantize = true
	res := FineTune(d, ds.Train, cfg)
	if res.QuantBytes == 0 || res.FP32Bytes == 0 {
		t.Fatal("quantization memory not reported")
	}
	if float64(res.FP32Bytes)/float64(res.QuantBytes) < 4 {
		t.Fatalf("quantization savings only %.1fx", float64(res.FP32Bytes)/float64(res.QuantBytes))
	}
}

func TestFineTuneZeroStepsPanics(t *testing.T) {
	d, ds := testDetector(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FineTune(d, ds.Train, FineTuneConfig{Steps: 0})
}

func TestAnomalyScoresRange(t *testing.T) {
	d, ds := testDetector(t)
	labels, scores := AnomalyScores(d, ds.Test[:15], nil)
	if len(labels) != 15 || len(scores) != 15 {
		t.Fatal("length mismatch")
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of range", s)
		}
	}
}

func TestChainOfThoughtStructure(t *testing.T) {
	d, ds := testDetector(t)
	ctx := SelectExamples(ds.Train, 6, Mixed, 7)
	res := ChainOfThought(d, ds.Test[0], ctx)
	if res.Label != 0 && res.Label != 1 {
		t.Fatalf("label = %d", res.Label)
	}
	if len(res.Steps) < flowbench.NumFeatures {
		t.Fatalf("only %d reasoning steps", len(res.Steps))
	}
	if !strings.HasPrefix(res.Text, "sure, here's the step-by-step reasoning:") {
		t.Fatalf("text = %q", res.Text[:50])
	}
	if !strings.Contains(res.Text, "runtime") {
		t.Fatal("reasoning must discuss the runtime feature")
	}
	if !strings.Contains(res.Steps[len(res.Steps)-1], "the category is likely") {
		t.Fatalf("final step = %q", res.Steps[len(res.Steps)-1])
	}
	if !strings.Contains(res.Prompt, "step by step") {
		t.Fatal("CoT prompt missing step-by-step instruction")
	}
}

func TestChainOfThoughtSingleClassContext(t *testing.T) {
	d, ds := testDetector(t)
	ctx := SelectExamples(ds.Train, 4, NegativeOnly, 7)
	res := ChainOfThought(d, ds.Test[0], ctx)
	joined := strings.Join(res.Steps, " ")
	if !strings.Contains(joined, "lacks examples of both classes") {
		t.Fatal("single-class context must be flagged in reasoning")
	}
}
