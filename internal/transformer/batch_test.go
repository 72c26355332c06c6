package transformer

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func batchTestModel(causal bool) *Model {
	cfg := Config{
		Name: "batch-test", VocabSize: 120, MaxSeqLen: 32, DModel: 32,
		NumHeads: 4, NumLayers: 2, FFNDim: 64, Causal: causal, NumClasses: 2,
	}
	return New(cfg, tensor.NewRNG(7))
}

func batchTestSeqs(n, vocab, maxLen int, seed uint64) [][]int {
	rng := tensor.NewRNG(seed)
	seqs := make([][]int, n)
	for i := range seqs {
		T := 1 + rng.Intn(maxLen)
		ids := make([]int, T)
		for t := range ids {
			ids[t] = rng.Intn(vocab)
		}
		seqs[i] = ids
	}
	return seqs
}

// refNextLogits is the inference paths' reference: the last row of the
// training forward over ids, which must fit in MaxSeqLen.
func refNextLogits(m *Model, ids []int) []float32 {
	logits := m.ForwardLM(ids, false)
	return logits.Row(logits.Rows - 1)
}

// refChoice is the reference constrained choice: the softmax of
// refNextLogits over the choice tokens, and its argmax.
func refChoice(m *Model, ids, choices []int) (int, []float32) {
	row := refNextLogits(m, ids)
	sub := make([]float32, len(choices))
	for i, c := range choices {
		sub[i] = row[c]
	}
	tensor.Softmax(sub)
	return tensor.ArgMax(sub), sub
}

// maxAbsDiff is the largest elementwise |a-b|.
func maxAbsDiff(a, b []float32) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(float64(a[i]-b[i])))
	}
	return d
}

func TestForwardClsBatchMatchesSequential(t *testing.T) {
	for _, causal := range []bool{false, true} {
		m := batchTestModel(causal)
		seqs := batchTestSeqs(9, m.Config.VocabSize, m.Config.MaxSeqLen, 3)
		got := m.ForwardClsBatchWS(seqs, nil)
		if got.Rows != len(seqs) || got.Cols != m.Config.NumClasses {
			t.Fatalf("batch logits shape %dx%d", got.Rows, got.Cols)
		}
		for i, ids := range seqs {
			want := m.ForwardCls(ids, false)
			row := tensor.NewFrom(1, got.Cols, got.Row(i))
			if !row.AllClose(want, 1e-5) {
				t.Fatalf("causal=%v seq %d: batch %v vs sequential %v", causal, i, got.Row(i), want.Row(0))
			}
		}
	}
}

func TestForwardClsBatchTruncatesKeepingHead(t *testing.T) {
	m := batchTestModel(false)
	long := make([]int, m.Config.MaxSeqLen+10)
	for i := range long {
		long[i] = i % m.Config.VocabSize
	}
	batch := [][]int{long}
	got := m.ForwardClsBatchWS(batch, nil)
	want := m.ForwardCls(long, false) // Encode truncates the same way
	if !tensor.NewFrom(1, got.Cols, got.Row(0)).AllClose(want, 1e-5) {
		t.Fatal("truncated batch forward differs from sequential")
	}
	if len(batch[0]) != m.Config.MaxSeqLen+10 {
		t.Fatal("the batch forward mutated the caller's sequence batch")
	}
}

func TestNextTokenLogitsBatchMatchesSequential(t *testing.T) {
	m := batchTestModel(true)
	prompts := batchTestSeqs(8, m.Config.VocabSize, m.Config.MaxSeqLen, 5)
	logits := m.nextTokenLogits(nil, prompts, nil, nil)
	if logits.Rows != len(prompts) || logits.Cols != m.Config.VocabSize {
		t.Fatalf("batch logits shape %dx%d", logits.Rows, logits.Cols)
	}
	for i, p := range prompts {
		if d := maxAbsDiff(logits.Row(i), refNextLogits(m, p)); d > 1e-5 {
			t.Fatalf("prompt %d: batch logits differ from the training forward by %g", i, d)
		}
	}
}

func TestScoreChoiceBatchMatchesSequential(t *testing.T) {
	m := batchTestModel(true)
	prompts := batchTestSeqs(8, m.Config.VocabSize, m.Config.MaxSeqLen, 9)
	choices := []int{10, 20}
	best, probs := m.ScoreChoiceBatchWithCacheWS(nil, prompts, choices, nil)
	for i, p := range prompts {
		wantBest, wantProbs := refChoice(m, p, choices)
		if best[i] != wantBest {
			t.Fatalf("prompt %d: batch choice %d vs sequential %d", i, best[i], wantBest)
		}
		if d := maxAbsDiff(probs[i], wantProbs); d > 1e-5 {
			t.Fatalf("prompt %d: choice probabilities differ by %g", i, d)
		}
	}
}

// TestInferKVCacheMatchesBuildKVCache checks the read-only cache builder
// against the keys and values the training forward projects over the same
// prefix.
func TestInferKVCacheMatchesBuildKVCache(t *testing.T) {
	m := batchTestModel(true)
	prefix := batchTestSeqs(1, m.Config.VocabSize, m.Config.MaxSeqLen/2, 13)[0]
	got := m.InferKVCache(prefix)
	m.Encode(prefix, false)
	if got.Len != len(prefix) || len(got.Layers) != len(m.Blocks) {
		t.Fatalf("cache shape: len %d/%d layers %d/%d", got.Len, len(prefix), len(got.Layers), len(m.Blocks))
	}
	for li, b := range m.Blocks {
		if !got.Layers[li].K.AllClose(b.Attn.k, 1e-5) || !got.Layers[li].V.AllClose(b.Attn.v, 1e-5) {
			t.Fatalf("layer %d: cached K/V differ from the training forward's projections", li)
		}
	}
}

func TestNextTokenLogitsBatchWithCacheMatchesSequential(t *testing.T) {
	m := batchTestModel(true)
	prefix := batchTestSeqs(1, m.Config.VocabSize, m.Config.MaxSeqLen/2, 17)[0]
	suffixes := batchTestSeqs(6, m.Config.VocabSize, m.Config.MaxSeqLen-len(prefix), 19)
	cache := m.InferKVCache(prefix)
	logits := m.nextTokenLogits(cache, suffixes, nil, nil)
	if logits.Rows != len(suffixes) {
		t.Fatalf("rows = %d", logits.Rows)
	}
	for i, suffix := range suffixes {
		full := refNextLogits(m, append(append([]int{}, prefix...), suffix...))
		if d := maxAbsDiff(logits.Row(i), full); d > 1e-4 {
			t.Fatalf("suffix %d: cached batch logits differ from the full training forward by %g", i, d)
		}
	}
}

func TestEmptyBatches(t *testing.T) {
	enc := batchTestModel(false)
	if got := enc.ForwardClsBatchWS(nil, nil); got.Rows != 0 {
		t.Fatalf("empty cls batch rows = %d", got.Rows)
	}
	dec := batchTestModel(true)
	if got := dec.nextTokenLogits(nil, nil, nil, nil); got.Rows != 0 {
		t.Fatalf("empty lm batch rows = %d", got.Rows)
	}
}

// TestBatchForwardIsConcurrencySafe hammers the read-only batch path from
// many goroutines and checks every result against a single-threaded
// reference — the property core.Server's worker pool depends on.
func TestBatchForwardIsConcurrencySafe(t *testing.T) {
	m := batchTestModel(false)
	seqs := batchTestSeqs(6, m.Config.VocabSize, m.Config.MaxSeqLen, 11)
	want := m.ForwardClsBatchWS(seqs, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got := m.ForwardClsBatchWS(seqs, nil)
				if !got.AllClose(want, 1e-6) {
					errs <- "concurrent batch forward diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
