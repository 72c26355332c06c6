package icl

import (
	"strings"
	"testing"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/metrics"
	"repro/internal/prompt"
	"repro/internal/tokenizer"
)

// refClassify is the batched path's reference: the forward over the full
// few-shot prompt alone, cut to its right edge when it overflows the
// context, with the constrained softmax over the two label words at the last
// position.
func refClassify(d *Detector, query string, examples []prompt.Example) (int, [2]float32) {
	ids := append([]int{tokenizer.BOS}, d.Tok.Encode(prompt.FewShot(examples, query), false)...)
	if n := d.Model.Config.MaxSeqLen; len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	choices := d.labelChoiceIDs()
	best, probs := d.Model.ScoreChoiceBatchWithCacheWS(nil, [][]int{ids}, choices[:], nil)
	return best[0], [2]float32{probs[0][0], probs[0][1]}
}

// refConfusion is Evaluate's reference over refClassify.
func refConfusion(d *Detector, jobs []flowbench.Job, examples []prompt.Example) metrics.Confusion {
	labels := make([]int, len(jobs))
	preds := make([]int, len(jobs))
	for i, j := range jobs {
		labels[i] = j.Label
		preds[i], _ = refClassify(d, logparse.Sentence(j), examples)
	}
	return metrics.NewConfusion(labels, preds)
}

// assertMatchesReference checks ClassifyBatchCachedWS against refClassify
// query by query: equal labels, probabilities within 1e-4.
func assertMatchesReference(t *testing.T, d *Detector, pc *PromptCache, queries []string, examples []prompt.Example) {
	t.Helper()
	labels, probs := d.ClassifyBatchCachedWS(pc, queries, nil)
	if len(labels) != len(queries) || len(probs) != len(queries) {
		t.Fatalf("batch sizes %d/%d, want %d", len(labels), len(probs), len(queries))
	}
	for i, q := range queries {
		wantLabel, wantProbs := refClassify(d, q, examples)
		if labels[i] != wantLabel {
			t.Fatalf("query %d: batch label %d vs reference %d", i, labels[i], wantLabel)
		}
		for k := 0; k < 2; k++ {
			diff := probs[i][k] - wantProbs[k]
			if diff < -1e-4 || diff > 1e-4 {
				t.Fatalf("query %d prob %d: batch %v vs reference %v", i, k, probs[i], wantProbs)
			}
		}
	}
}

func testQueries(ds *flowbench.Dataset, n int) []string {
	queries := make([]string, n)
	for i := range queries {
		queries[i] = logparse.Sentence(ds.Test[i])
	}
	return queries
}

func TestClassifyBatchMatchesSequential(t *testing.T) {
	d, ds := testDetector(t)
	exs := PromptExamples(SelectExamples(ds.Train, 3, Mixed, 5))
	assertMatchesReference(t, d, d.NewPromptCache(exs), testQueries(ds, 9), exs)
}

func TestClassifyBatchCachedReuse(t *testing.T) {
	d, ds := testDetector(t)
	exs := PromptExamples(SelectExamples(ds.Train, 3, Mixed, 5))
	queries := testQueries(ds, 6)
	pc := d.NewPromptCache(exs)
	want, _ := d.ClassifyBatchCachedWS(d.NewPromptCache(exs), queries, nil)
	// The same cache must serve repeated calls with identical results.
	for rep := 0; rep < 2; rep++ {
		labels, _ := d.ClassifyBatchCachedWS(pc, queries, nil)
		for i := range labels {
			if labels[i] != want[i] {
				t.Fatalf("rep %d query %d: cached label %d vs fresh %d", rep, i, labels[i], want[i])
			}
		}
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	d, _ := testDetector(t)
	labels, probs := d.ClassifyBatchCachedWS(d.NewPromptCache(nil), nil, nil)
	if labels != nil || probs != nil {
		t.Fatal("empty batch should return nil results")
	}
}

// TestClassifyPrefixOverflowFallsBack covers few-shot context that alone fills
// the model's context: the prompt cache holds nothing and every query runs as
// a full prompt cut to its right edge.
func TestClassifyPrefixOverflowFallsBack(t *testing.T) {
	d, ds := testDetector(t)
	exs := PromptExamples(SelectExamples(ds.Train, 40, Mixed, 5))
	prefix := d.Tok.Encode(prompt.FewShotPrefix(exs), false)
	if len(prefix)+1 < d.Model.Config.MaxSeqLen {
		t.Fatalf("%d-token prefix does not fill the %d-token context", len(prefix)+1, d.Model.Config.MaxSeqLen)
	}
	pc := d.NewPromptCache(exs)
	if pc.cache != nil {
		t.Fatal("an overflowing prefix was cached")
	}
	assertMatchesReference(t, d, pc, testQueries(ds, 4), exs)
}

// TestClassifySuffixOverflowFallsBack covers a query whose suffix does not fit
// after the cached prefix: it alone runs as a full prompt cut to its right
// edge, while the queries beside it in the batch stay on the cache.
func TestClassifySuffixOverflowFallsBack(t *testing.T) {
	d, ds := testDetector(t)
	exs := PromptExamples(SelectExamples(ds.Train, 4, Mixed, 5))
	pc := d.NewPromptCache(exs)
	if pc.cache == nil {
		t.Fatal("a short prefix was not cached")
	}
	queries := testQueries(ds, 30)
	long := strings.Join(queries, " ")
	if n := len(d.Tok.Encode(prompt.QuerySuffix(long), false)); pc.cache.Len+n <= d.Model.Config.MaxSeqLen {
		t.Fatalf("%d-token suffix fits after the %d-token prefix", n, pc.cache.Len)
	}
	assertMatchesReference(t, d, pc, []string{queries[0], long, queries[1]}, exs)
}
