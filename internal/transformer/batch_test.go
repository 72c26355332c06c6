package transformer

import (
	"math"
	"sync"
	"testing"

	"repro/internal/nn"
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

// refNextLogits is the cached paths' reference: the next-token logits of
// ids run alone, uncached; ids must fit in MaxSeqLen.
func refNextLogits(m *Model, ids []int) []float32 {
	return m.nextTokenLogits(nil, [][]int{ids}, nil, nil).Row(0)
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

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Packing is bit-transparent: every position-wise kernel computes a row from
// that row alone, and attention never crosses a sequence boundary, so a
// sequence's logits in a packed batch equal its logits run alone, bit for
// bit.

func TestForwardClsBatchMatchesSequential(t *testing.T) {
	for _, causal := range []bool{false, true} {
		m := batchTestModel(causal)
		seqs := batchTestSeqs(9, m.Config.VocabSize, m.Config.MaxSeqLen, 3)
		got := m.ForwardClsBatchWS(seqs, nil)
		if got.Rows != len(seqs) || got.Cols != m.Config.NumClasses {
			t.Fatalf("batch logits shape %dx%d", got.Rows, got.Cols)
		}
		for i, ids := range seqs {
			want := m.ForwardClsBatchWS([][]int{ids}, nil)
			if !sameBits(got.Row(i), want.Row(0)) {
				t.Fatalf("causal=%v seq %d: batch %v vs alone %v", causal, i, got.Row(i), want.Row(0))
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
	batch := [][]int{long, {1, 2, 3}}
	got := m.ForwardClsBatchWS(batch, nil)
	want := m.ForwardClsBatchWS([][]int{long[:m.Config.MaxSeqLen]}, nil)
	if !sameBits(got.Row(0), want.Row(0)) {
		t.Fatal("a truncated sequence's logits differ from its head's")
	}
	if len(batch[0]) != m.Config.MaxSeqLen+10 {
		t.Fatal("the batch forward mutated the caller's sequence batch")
	}
}

// TestGroupBoundariesMatchAlone runs 120 sequences, four at MaxSeqLen and
// one truncated to it, through an encoder whose MaxSeqLen exceeds groupRows,
// so the batch crosses many group boundaries and every full-length sequence
// is a group alone (poolGroups). Each sequence's logits and pooled features
// must equal its own forward's bit for bit, in fp32 and int8, on a held
// workspace (twice, the second time over its dirty arenas) and on none.
func TestGroupBoundariesMatchAlone(t *testing.T) {
	cfg := Config{
		Name: "groups", VocabSize: 120, MaxSeqLen: groupRows + 8, DModel: 32,
		NumHeads: 4, NumLayers: 2, FFNDim: 64, NumClasses: 2,
	}
	rng := tensor.NewRNG(43)
	seqs := make([][]int, 120)
	for i := range seqs {
		n := 1 + rng.Intn(40)
		switch {
		case i == 77:
			n = cfg.MaxSeqLen + 5
		case i%30 == 4:
			n = cfg.MaxSeqLen
		}
		seqs[i] = make([]int, n)
		for j := range seqs[i] {
			seqs[i][j] = rng.Intn(cfg.VocabSize)
		}
	}
	for _, precision := range []string{"fp32", "int8"} {
		m := New(cfg, tensor.NewRNG(44))
		if precision == "int8" {
			m.QuantizeInt8(0)
		}
		groups := 0
		for lo, hi := 0, 0; lo < len(seqs); lo = hi {
			hi, _ = m.group(seqs, lo)
			groups++
		}
		if groups < 10 {
			t.Fatalf("%s: the batch runs in %d groups, want ≥ 10", precision, groups)
		}
		held := tensor.NewWorkspace()
		for _, ws := range []*tensor.Workspace{nil, held, held} {
			ws.Reset()
			logits := m.ForwardClsBatchWS(seqs, ws)
			ws.Reset()
			pooled := m.PooledBatchWS(seqs, ws)
			for i, ids := range seqs {
				alone := [][]int{ids}
				if !sameBits(logits.Row(i), m.ForwardClsBatchWS(alone, nil).Row(0)) {
					t.Fatalf("%s held=%v seq %d: batch logits differ from the sequence's alone", precision, ws != nil, i)
				}
				if !sameBits(pooled.Row(i), m.PooledBatchWS(alone, nil).Row(0)) {
					t.Fatalf("%s held=%v seq %d: batch pooled features differ from the sequence's alone", precision, ws != nil, i)
				}
			}
		}
	}
}

// TestTapedForwardMatchesServed: without dropout, the forward a trainer
// records computes the logits serving returns, bit for bit.
func TestTapedForwardMatchesServed(t *testing.T) {
	for _, causal := range []bool{false, true} {
		m := batchTestModel(causal)
		seqs := batchTestSeqs(5, m.Config.VocabSize, m.Config.MaxSeqLen, 21)
		tape := nn.NewTape()
		if !sameBits(m.forwardClsTape(seqs, tape).Data, m.ForwardClsBatchWS(seqs, nil).Data) {
			t.Fatalf("causal=%v: taped classification logits differ from served", causal)
		}
		if !causal {
			continue
		}
		lm, served := m.forwardLMTape(seqs, tape), m.nextTokenLogits(nil, seqs, nil, nil)
		at := 0
		for i, ids := range seqs {
			at += len(ids)
			if !sameBits(lm.Row(at-1), served.Row(i)) {
				t.Fatalf("prompt %d: taped next-token logits differ from served", i)
			}
		}
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
		if !sameBits(logits.Row(i), m.nextTokenLogits(nil, [][]int{p}, nil, nil).Row(0)) {
			t.Fatalf("prompt %d: batch logits differ from the prompt run alone", i)
		}
	}
}

func TestScoreChoiceBatchMatchesSequential(t *testing.T) {
	m := batchTestModel(true)
	prompts := batchTestSeqs(8, m.Config.VocabSize, m.Config.MaxSeqLen, 9)
	choices := []int{10, 20}
	best, probs := m.ScoreChoiceBatchWithCacheWS(nil, prompts, choices, nil)
	for i, p := range prompts {
		wantBest, wantProbs := m.ScoreChoiceBatchWithCacheWS(nil, [][]int{p}, choices, nil)
		if best[i] != wantBest[0] || !sameBits(probs[i], wantProbs[0]) {
			t.Fatalf("prompt %d: batch (%d, %v) vs alone (%d, %v)", i, best[i], probs[i], wantBest[0], wantProbs[0])
		}
	}
}

// TestInferKVCacheMatchesBuildKVCache checks the cache builder against the
// keys and values a taped forward over the same prefix records, bit for bit.
func TestInferKVCacheMatchesBuildKVCache(t *testing.T) {
	m := batchTestModel(true)
	prefix := batchTestSeqs(1, m.Config.VocabSize, m.Config.MaxSeqLen/2, 13)[0]
	got := m.InferKVCache(prefix)
	if got.Len != len(prefix) || len(got.Layers) != len(m.Blocks) {
		t.Fatalf("cache shape: len %d/%d layers %d/%d", got.Len, len(prefix), len(got.Layers), len(m.Blocks))
	}
	offsets := []int{0, len(prefix)}
	h := m.embedBatch([][]int{prefix}, offsets, 0, nil, nil)
	for li, b := range m.Blocks {
		tape := nn.NewTape()
		b.Attn.forward(b.LN1.Forward(h, nil, nil), offsets, prefixTree{}, LayerKV{}, false, tape.WS(), tape, false)
		tape.Pop(b.Attn.Wo.(*nn.Linear).Weight.Name)
		_, rec := tape.Pop(attentionRecord)
		if !sameBits(got.Layers[li].K.Data, rec[1].Data) || !sameBits(got.Layers[li].V.Data, rec[2].Data) {
			t.Fatalf("layer %d: cached K/V differ from the recorded projections", li)
		}
		h, _ = b.forward(h, offsets, prefixTree{}, LayerKV{}, false, nil, nil, nil, false)
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
		// A tolerance, not bits: splitting the keys into cached past and
		// current regroups each value sum (past and current are summed
		// separately, then added).
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
