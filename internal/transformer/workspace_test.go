package transformer

import (
	"math"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// referenceAttentionForward is the pre-strided attention implementation:
// every head is copied out of the packed projections, run through the dense
// kernels, and added back. It uses the same fused softmax as the production
// path, so the strided rewrite must match it bitwise — the only difference
// is data movement, not arithmetic.
func referenceAttentionForward(a *MultiHeadAttention, x *tensor.Matrix) *tensor.Matrix {
	dh := a.DModel / a.NumHeads
	headView := func(m *tensor.Matrix, h int) *tensor.Matrix {
		out := tensor.New(m.Rows, dh)
		for i := 0; i < m.Rows; i++ {
			copy(out.Row(i), m.Row(i)[h*dh:(h+1)*dh])
		}
		return out
	}
	q := a.Wq.Forward(x, nil, nil)
	k := a.Wk.Forward(x, nil, nil)
	v := a.Wv.Forward(x, nil, nil)
	concat := tensor.New(x.Rows, a.DModel)
	scale := float32(1 / math.Sqrt(float64(dh)))
	for h := 0; h < a.NumHeads; h++ {
		scores := tensor.MatMulT(nil, headView(q, h), headView(k, h))
		tensor.ScaledMaskedRowSoftmax(scores, scale, 0, a.Causal)
		out := tensor.MatMul(nil, scores, headView(v, h))
		for i := 0; i < out.Rows; i++ {
			copy(concat.Row(i)[h*dh:(h+1)*dh], out.Row(i))
		}
	}
	return a.Wo.Forward(concat, nil, nil)
}

// TestStridedAttentionMatchesCopyingBitwise is the core strided-kernel
// equivalence property: attention over head views must equal attention over
// head copies bit for bit, taped (each head's probabilities kept) or not
// (one score buffer reused).
func TestStridedAttentionMatchesCopyingBitwise(t *testing.T) {
	for _, causal := range []bool{false, true} {
		rng := tensor.NewRNG(91)
		a := newMultiHeadAttention("strided", 32, 4, causal, rng)
		x := tensor.New(7, 32)
		tensor.Gaussian(x, 1, rng)

		want := referenceAttentionForward(a, x)
		for _, tape := range []*nn.Tape{nil, nn.NewTape()} {
			got, _ := a.forward(x, []int{0, x.Rows}, prefixTree{}, LayerKV{}, false, tape.WS(), tape, false)
			if !got.Equal(want) {
				t.Fatalf("causal=%v taped=%v: forward differs from copying reference", causal, tape != nil)
			}
		}
	}
}

// TestKVCacheDecodeAllocations pins the steady-state allocation count of the
// one-query decode step on a workspace borrowed from the pool (how core's
// DetectBatch serves a lone sentence) at near-zero: only the returned
// best/probability slices may allocate, never the forward pass's temporaries.
func TestKVCacheDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := New(smallConfig(true), tensor.NewRNG(92))
	cache := m.InferKVCache([]int{1, 2, 3, 4, 5, 6})
	suffixes := [][]int{{7, 8}}
	choices := []int{1, 2}
	decode := func() {
		ws := tensor.GetWorkspace()
		m.ScoreChoiceBatchWithCacheWS(cache, suffixes, choices, ws)
		tensor.PutWorkspace(ws)
	}
	decode() // warm the workspace pool
	allocs := testing.AllocsPerRun(100, decode)
	// Budget: the best-index slice, the probability slice-of-slices and the
	// one choice-probability slice (measured: 3) plus headroom for pool/GC
	// noise. The pre-workspace implementation allocated hundreds of matrices
	// per call here.
	if allocs > 4 {
		t.Fatalf("KV-cache decode step allocates %v times per op, want ≤ 4", allocs)
	}
}

// TestEncodeBatchAllocations pins the packed batched forward on a
// caller-owned workspace at near-zero steady-state allocations (the
// classification head's returned logits are the only per-call allocation).
func TestEncodeBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := New(smallConfig(false), tensor.NewRNG(93))
	seqs := [][]int{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	ws := tensor.NewWorkspace()
	ws.Reset()
	m.ForwardClsBatchWS(seqs, ws) // warm the arena for this batch shape
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.ForwardClsBatchWS(seqs, ws)
	})
	if allocs > 4 {
		t.Fatalf("ForwardClsBatchWS allocates %v times per op, want ≤ 4", allocs)
	}
}

// TestScoreChoiceBatchCachedAllocations pins the steady-state allocation
// count of the batched cached-prefix scoring path (the ICL serving inner
// loop): with the vocabulary logits arena-backed, only the returned best/
// probability slices allocate — per batch, not per vocabulary row.
func TestScoreChoiceBatchCachedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := New(smallConfig(true), tensor.NewRNG(94))
	cache := m.InferKVCache([]int{1, 2, 3, 4, 5, 6})
	suffixes := [][]int{{7, 8}, {9}, {4, 5, 6}}
	choices := []int{1, 2}
	ws := tensor.NewWorkspace()
	ws.Reset()
	m.ScoreChoiceBatchWithCacheWS(cache, suffixes, choices, ws) // warm arenas
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.ScoreChoiceBatchWithCacheWS(cache, suffixes, choices, ws)
	})
	// Budget: the best-index slice, the probability slice-of-slices, and one
	// choice-probability slice per suffix (3 here) — 5 measured — plus
	// headroom. The pre-arena implementation allocated a [B, VocabSize]
	// logits matrix and hundreds of forward-pass temporaries per call.
	if allocs > 8 {
		t.Fatalf("cached batch scoring allocates %v times per op, want ≤ 8", allocs)
	}
}

// TestSharedChunkArenasSettle pins a held workspace's steady state over
// chunks whose packed row counts differ, as the streaming monitor's do:
// warmed once with the largest shared chunk, smaller shared chunks — one
// with a strict prefix that owns no rows — alternate without re-growing an
// arena, the block scratch's child arena included. The budget is
// TestScoreChoiceBatchCachedAllocations': the returned slices (2 + B) plus
// headroom.
func TestSharedChunkArenasSettle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := Config{
		Name: "settle", VocabSize: 120, MaxSeqLen: 40, DModel: 16,
		NumHeads: 2, NumLayers: 3, FFNDim: 32, Causal: true, NumClasses: 2,
	}
	m := New(cfg, tensor.NewRNG(96))
	cache := m.InferKVCache([]int{1, 2, 3, 4, 5, 6})
	lines := monitorSuffixes(32)
	chunks := [][][]int{
		lines[:3],                       // share "name is"
		{lines[4], lines[4][:7]},        // a strict prefix borrows every row
		{lines[0], lines[8], lines[16]}, // share one value
	}
	choices := []int{1, 2}
	ws := tensor.NewWorkspace()
	m.ScoreChoiceBatchWithCacheWS(cache, lines, choices, ws) // warm with the largest chunk
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.ScoreChoiceBatchWithCacheWS(cache, chunks[i%len(chunks)], choices, ws)
		i++
	})
	if allocs > 8 {
		t.Fatalf("alternating shared chunks allocate %v times per op, want ≤ 8", allocs)
	}
}

// TestForwardScratchIsOneSublayer pins what a held workspace keeps per
// packed row once warmed: by a 64-sequence encoder batch at
// bert-base-uncased's shape, in the child arena its groups run on, per row
// of its largest group (poolGroups; the [B, dModel] output is
// TestEncoderFootprintIsBounded's), and by a 32-line monitor chunk through
// the int8 decoder at mistral's, over a cached prefix, per packed row. Each
// must stay under checkFootprint's bound. A forward that kept two blocks'
// intermediates held 1.7 and 1.9 times it.
func TestForwardScratchIsOneSublayer(t *testing.T) {
	enc := New(bertBaseConfig(), tensor.NewRNG(104))
	seqs := sentenceBatch(64, enc.Config.VocabSize)
	ws := tensor.NewWorkspace()
	enc.ForwardClsBatchWS(seqs, ws)
	rows := 0
	for lo, hi := 0, 0; lo < len(seqs); lo = hi {
		var n int
		hi, n = enc.group(seqs, lo)
		rows = max(rows, n)
	}
	checkFootprint(t, "encoder", enc.Config, false, ws.Child(), rows, 24+10, 0)

	dec := New(mistralConfig(120), tensor.NewRNG(7))
	dec.QuantizeInt8(0)
	prefix := make([]int, 230)
	for i := range prefix {
		prefix[i] = i % 120
	}
	cache := dec.InferKVCache(prefix)
	lines := monitorSuffixes(32)
	ws = tensor.NewWorkspace()
	dec.ScoreChoiceBatchWithCacheWS(cache, lines, []int{10, 20}, ws)
	offsets, _ := pack(lines, true, nil, nil)
	checkFootprint(t, "int8 decoder", dec.Config, true, ws, offsets[len(lines)], len(lines[0]), len(prefix))
}

// TestEncoderFootprintIsBounded pins that an encoder's batch size does not
// size a held workspace: after a 512-sentence batch the child arena the
// groups run on holds no more than after a 64-sentence one, and the rest
// of the workspace is the [B, dModel] output, with regrow's quarter.
func TestEncoderFootprintIsBounded(t *testing.T) {
	m := New(bertBaseConfig(), tensor.NewRNG(104))
	ws := tensor.NewWorkspace()
	groups := 0
	for _, n := range []int{64, 512} {
		ws.Reset()
		m.ForwardClsBatchWS(sentenceBatch(n, m.Config.VocabSize), ws)
		if n == 64 {
			groups = ws.Child().Bytes()
		} else if got := ws.Child().Bytes(); got > groups {
			t.Errorf("after %d sentences the groups' arena holds %d bytes, after 64 it held %d", n, got, groups)
		}
		if out, most := ws.Bytes()-ws.Child().Bytes(), 4*(n+n/4)*m.Config.DModel; out > most {
			t.Errorf("after %d sentences the workspace holds %d bytes besides the groups', want ≤ %d", n, out, most)
		}
	}
}

// bertBaseConfig is the SFT serving encoder's shape (models.Spec
// "bert-base-uncased") at the served vocabulary of 120, spelled out because
// internal/models imports this package.
func bertBaseConfig() Config {
	return Config{
		Name: "bert-base-uncased", VocabSize: 120, MaxSeqLen: 64, DModel: 48,
		NumHeads: 4, NumLayers: 4, FFNDim: 96, NumClasses: 2,
	}
}

// sentenceBatch returns n log sentences' token ids: sequence s has 24+s%11
// tokens, 29 on average.
func sentenceBatch(n, vocab int) [][]int {
	seqs := make([][]int, n)
	for s := range seqs {
		seqs[s] = make([]int, 24+s%11)
		for i := range seqs[s] {
			seqs[s][i] = (7*s + 3*i + 1) % vocab
		}
	}
	return seqs
}

// checkFootprint fails t when ws holds more bytes per packed row than a
// forward of cfg over rows packed rows may, whose longest sequence, of maxT
// positions, follows past cached ones. The bound's terms are one sublayer's
// scratch — attention's six d-wide buffers and the feed-forward's two f-wide
// ones, each with regrow's quarter, since the slots one sublayer sizes first
// grow again for the other — then the residual stream with its position
// embedding and the final norm, d each, and the score buffer. The int8 path
// adds its quantized inputs' codes, a byte per column of d and of f, with the
// quarter. Token ids, int8 scales and each sequence's last-row buffers fit
// in the headroom of the slots that never regrow.
func checkFootprint(t *testing.T, name string, cfg Config, q8 bool, ws *tensor.Workspace, rows, maxT, past int) {
	t.Helper()
	d, f := float64(cfg.DModel), float64(cfg.FFNDim)
	bound := 4 * (1.25*(6*d+2*f) + 3*d + float64(maxT*(past+maxT))/float64(rows))
	if q8 {
		bound += 1.25 * (d + f)
	}
	if got := float64(ws.Bytes()) / float64(rows); got > bound {
		t.Errorf("%s: the workspace holds %.0f bytes per packed row, want ≤ %.0f", name, got, bound)
	}
}

// TestQuantizedBatchForwardAllocations pins that the int8 inference path
// stays as allocation-lean as fp32: the quantized projections draw their
// activation-code buffers from the same arena discipline.
func TestQuantizedBatchForwardAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := New(smallConfig(false), tensor.NewRNG(95))
	m.QuantizeInt8(0)
	seqs := [][]int{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	ws := tensor.NewWorkspace()
	ws.Reset()
	m.ForwardClsBatchWS(seqs, ws) // warm the arena for this batch shape
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.ForwardClsBatchWS(seqs, ws)
	})
	if allocs > 4 {
		t.Fatalf("quantized ForwardClsBatchWS allocates %v times per op, want ≤ 4", allocs)
	}
}

// TestWorkspaceForwardIsConcurrencySafe exercises the workspace-threaded
// batch paths from many goroutines — each with its own arena or none, all
// sharing one model and one KV cache — under -race. Every result must match the
// serial one bit for bit: the classification logits, and the decoder's
// choice probabilities as well as its argmax over suffixes that share heads.
func TestWorkspaceForwardIsConcurrencySafe(t *testing.T) {
	enc := batchTestModel(false)
	seqs := batchTestSeqs(5, enc.Config.VocabSize, enc.Config.MaxSeqLen, 23)
	wantCls := enc.ForwardClsBatchWS(seqs, nil)

	dec := batchTestModel(true)
	prefix := batchTestSeqs(1, dec.Config.VocabSize, dec.Config.MaxSeqLen/2, 29)[0]
	cache := dec.InferKVCache(prefix)
	// The suffixes share leading runs, so the goroutines also gather borrowed
	// heads from the packed rows concurrently.
	room := dec.Config.MaxSeqLen - len(prefix)
	suffixes := append(batchTestSeqs(4, dec.Config.VocabSize, room, 31), sharedHeadBatch(room, dec.Config.VocabSize)...)
	wantBest, wantProbs := dec.ScoreChoiceBatchWithCacheWS(cache, suffixes, []int{3, 4}, nil)

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines pass a nil workspace, so their forwards
			// borrow a pooled parent for the scratch while the others run:
			// an output drawn from that parent would race with its next
			// borrower.
			var ws *tensor.Workspace
			if g%2 == 0 {
				ws = tensor.GetWorkspace()
				defer tensor.PutWorkspace(ws)
			}
			for rep := 0; rep < 5; rep++ {
				ws.Reset()
				if got := enc.ForwardClsBatchWS(seqs, ws); !got.Equal(wantCls) {
					errs <- "concurrent ForwardClsBatchWS diverged"
					return
				}
				ws.Reset()
				best, probs := dec.ScoreChoiceBatchWithCacheWS(cache, suffixes, []int{3, 4}, ws)
				for i := range best {
					if best[i] != wantBest[i] || !sameBits(probs[i], wantProbs[i]) {
						errs <- "concurrent cached scoring diverged"
						return
					}
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
