package transformer

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// mistralConfig is the default ICL serving decoder's shape (models.Spec
// "mistral": 6 layers, dModel 96, 4 heads, FFN 192, 512-token context)
// spelled out, because internal/models imports this package.
func mistralConfig(vocab int) Config {
	return Config{
		Name: "bench", VocabSize: vocab, MaxSeqLen: 512, DModel: 96,
		NumHeads: 4, NumLayers: 6, FFNDim: 192, Causal: true, NumClasses: 2,
	}
}

// BenchmarkTrainStep measures one Trainer step of each training recipe, at
// the values its trainer passes: cls is one sft.Train step (a window of
// eight 27-token sentences at bert-base-uncased's shape, gradient clip 1,
// weight decay 0.01), lm-lora one icl.FineTune step (a ~300-token prompt at
// mistral's shape, LoRA on Wq/Wv, only the answer position supervised, clip
// 1). Both run at the registry models' dropout. One untimed step first grows
// the tape's arena, so B/op is a warm step's whatever b.N is.
func BenchmarkTrainStep(b *testing.B) {
	ids := func(n, vocab, seed int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = (7*i + 3 + seed) % vocab
		}
		return out
	}
	b.Run("cls", func(b *testing.B) {
		cfg := Config{Name: "bench", VocabSize: 300, MaxSeqLen: 64, DModel: 48, NumHeads: 4, NumLayers: 4, FFNDim: 96, Dropout: 0.1, NumClasses: 2}
		m := New(cfg, tensor.NewRNG(3))
		seqs, labels := make([][]int, 8), make([]int, 8)
		for i := range seqs {
			seqs[i], labels[i] = ids(27, cfg.VocabSize, i), i%2
		}
		tr := NewTrainer(m, 1e-3, 0.01, 1, len(seqs))
		tr.Cls(seqs, labels) // grows the tape's arena outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Cls(seqs, labels)
		}
	})
	b.Run("lm-lora", func(b *testing.B) {
		cfg := mistralConfig(300)
		cfg.Dropout = 0.1
		m := New(cfg, tensor.NewRNG(4))
		m.ApplyLoRA(8, 16, 0.05, tensor.NewRNG(5))
		prompt := ids(300, cfg.VocabSize, 0)
		targets := make([]int, len(prompt)-1)
		for i := range targets {
			targets[i] = -1
		}
		targets[len(targets)-1] = prompt[len(prompt)-1]
		seq := [][]int{prompt[:len(prompt)-1]}
		tr := NewTrainer(m, 2e-3, 0, 1, 1)
		tr.LM(seq, [][]int{targets}) // grows the tape's arena outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.LM(seq, [][]int{targets})
		}
	})
}

// BenchmarkKVCacheDecode measures cached decode steps on a workspace
// borrowed from the pool, in fp32 and with every projection computing in
// integers. The top-level pair scores the next token of one 1-token suffix
// against a 256-token cached prefix: the ICL serving inner loop for a lone
// line after the prompt cache is built. chunk32 is the streaming monitor's
// shape: a 32-line chunk of 29-token suffixes over a 230-token few-shot
// prefix, at the served vocabulary of 120; its lines share nothing, so it is
// the control for chunk32shared, the same shape with the leading runs a
// monitor chunk's lines share (monitorSuffixes), which reports the share of
// suffix rows the prefix-tree packing computes. Both decode every iteration
// on a cache whose suffix tree is empty, so they time one chunk's own
// sharing. chunk32stream cycles 64 distinct monitor-shaped chunks
// (monitorChunk) through one cache, as the monitor does, and reports the
// share of suffix rows computed once the suffix tree lends what earlier
// chunks shared, and the bytes per packed row a held workspace settles at
// over the stream. chunk32stream2w is that stream decoded by two goroutines
// on the one cache (benchDecodeTwoWorkers). allocs/op should sit within a
// few allocations of zero (only returned results allocate).
func BenchmarkKVCacheDecode(b *testing.B) {
	for _, precision := range []string{"fp32", "int8"} {
		b.Run(precision, func(b *testing.B) {
			benchDecode(b, precision, 300, 256, [][][]int{{{7}}}, false)
		})
	}
	b.Run("chunk32", func(b *testing.B) {
		suffixes := make([][]int, 32)
		for s := range suffixes {
			suffixes[s] = make([]int, 29)
			for i := range suffixes[s] {
				suffixes[s][i] = (7*s + 3*i + 1) % 120
			}
		}
		for _, precision := range []string{"fp32", "int8"} {
			b.Run(precision, func(b *testing.B) {
				benchDecode(b, precision, 120, 230, [][][]int{suffixes}, true)
			})
		}
	})
	b.Run("chunk32shared", func(b *testing.B) {
		suffixes := monitorSuffixes(32)
		offsets, _ := pack(suffixes, true, nil, nil)
		unique := float64(offsets[len(suffixes)]) / float64(32*len(suffixes[0]))
		for _, precision := range []string{"fp32", "int8"} {
			b.Run(precision, func(b *testing.B) {
				benchDecode(b, precision, 120, 230, [][][]int{suffixes}, true)
				b.ReportMetric(unique, "unique_rows")
			})
		}
	})
	b.Run("chunk32stream", func(b *testing.B) {
		chunks := make([][][]int, 64)
		for k := range chunks {
			chunks[k] = monitorChunk(k, 32)
		}
		for _, precision := range []string{"fp32", "int8"} {
			b.Run(precision, func(b *testing.B) {
				benchDecode(b, precision, 120, 230, chunks, false)
			})
		}
	})
	b.Run("chunk32stream2w", func(b *testing.B) {
		chunks := make([][][]int, 64)
		for k := range chunks {
			chunks[k] = monitorChunk(k, 32)
		}
		b.Run("int8", func(b *testing.B) {
			benchDecodeTwoWorkers(b, "int8", 120, 230, chunks)
		})
	})
}

// monitorSuffixes returns n ICL query suffixes shaped like the streaming
// monitor's: nine (name, is, value) triples and the two closing tokens of
// "category :", 29 tokens each. The first three values are s%4, (s/4)%2 and
// (s/8)%2, so lines share leading runs as a workflow's delay fields do; the
// rest are distinct for up to 64 lines.
func monitorSuffixes(n int) [][]int {
	const is, category, colon = 99, 97, 98
	seqs := make([][]int, n)
	for s := range seqs {
		for f := 0; f < 9; f++ {
			var value int
			switch f {
			case 0:
				value = 10 + s%4
			case 1:
				value = 10 + (s/4)%2
			case 2:
				value = 10 + (s/8)%2
			default:
				value = 20 + (s+11*(f-3))%64
			}
			seqs[s] = append(seqs[s], 100+f, is, value)
		}
		seqs[s] = append(seqs[s], category, colon)
	}
	return seqs
}

// benchDecode times ScoreChoiceBatchWithCacheWS over a prefixLen-token
// cached prefix, on a mistral-shaped decoder: iteration i decodes
// chunks[i%len(chunks)]. With fresh, each iteration runs on a KVCache whose
// suffix tree is empty, built outside the timer. Without, one cache serves
// every iteration, warmed first by a pass over the chunks; a stream of more
// than one chunk reports the share of suffix rows the timed iterations
// computed as computed_rows.
func benchDecode(b *testing.B, precision string, vocab, prefixLen int, chunks [][][]int, fresh bool) {
	m, cache := decodeModel(precision, vocab, prefixLen)
	choices := []int{10, 20}
	decode := func(suffixes [][]int) {
		ws := tensor.GetWorkspace()
		m.ScoreChoiceBatchWithCacheWS(cache, suffixes, choices, ws)
		tensor.PutWorkspace(ws)
	}
	// Warm the workspace pool, and without fresh the suffix tree.
	for _, suffixes := range chunks {
		decode(suffixes)
	}
	st := cache.tree
	rows, computed := st.rows, st.computed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fresh {
			b.StopTimer()
			cache = &KVCache{Layers: cache.Layers, Len: cache.Len, tree: newSuffixTree(len(m.Blocks), m.Config.DModel, treeBytes)}
			cache.tree.alloc()
			b.StartTimer()
		}
		decode(chunks[i%len(chunks)])
	}
	if !fresh && len(chunks) > 1 {
		b.StopTimer()
		b.ReportMetric(float64(st.computed-computed)/float64(st.rows-rows), "computed_rows")
		// The footprint a worker's held workspace settles at over the
		// stream, per packed row of the largest chunk packed alone.
		ws, most := tensor.NewWorkspace(), 0
		for _, suffixes := range chunks {
			ws.Reset()
			m.ScoreChoiceBatchWithCacheWS(cache, suffixes, choices, ws)
			offsets, _ := pack(suffixes, true, nil, nil)
			most = max(most, offsets[len(suffixes)])
		}
		b.ReportMetric(float64(ws.Bytes())/float64(most), "arena_B/row")
	}
}

// decodeModel is benchDecode's mistral-shaped decoder, quantized for int8,
// and the cache of a prefixLen-token prefix.
func decodeModel(precision string, vocab, prefixLen int) (*Model, *KVCache) {
	m := New(mistralConfig(vocab), tensor.NewRNG(7))
	if precision == "int8" {
		m.QuantizeInt8(0)
	}
	prefix := make([]int, prefixLen)
	for i := range prefix {
		prefix[i] = i % vocab
	}
	return m, m.InferKVCache(prefix)
}

// benchDecodeTwoWorkers decodes chunks from two goroutines on one cache, as
// two engine workers serving one model do: each takes the next chunk of the
// stream in turn and runs it on a workspace it holds and resets. A pass over
// the chunks warms both workspaces and the suffix tree first. ns/op is the
// wall time per chunk, so where the two workers' kernels do not contend for
// cores it is half a lone worker's.
func benchDecodeTwoWorkers(b *testing.B, precision string, vocab, prefixLen int, chunks [][][]int) {
	m, cache := decodeModel(precision, vocab, prefixLen)
	choices := []int{10, 20}
	wss := [2]*tensor.Workspace{tensor.NewWorkspace(), tensor.NewWorkspace()}
	run := func(n int) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, ws := range wss {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					ws.Reset()
					m.ScoreChoiceBatchWithCacheWS(cache, chunks[i%len(chunks)], choices, ws)
				}
			}()
		}
		wg.Wait()
	}
	run(len(chunks))
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkEncodeBatch measures the packed batched encoder forward on a
// reused worker-owned workspace, the SFT serving inner loop, and reports the
// bytes per packed row the workspace holds. 8x48 is 8 sequences × 48 tokens
// at a 96-wide model; bulk64 is bulk-sft's batch at bert-base-uncased's
// shape, 64 sentences of 24–34 tokens (29 on average) over several groups
// (poolGroups). At -cpu 1 allocs/op should sit within a few allocations of
// zero; with more, each kernel fanned out over goroutines allocates.
func BenchmarkEncodeBatch(b *testing.B) {
	b.Run("8x48", func(b *testing.B) {
		cfg := Config{
			Name: "bench", VocabSize: 300, MaxSeqLen: 64, DModel: 96,
			NumHeads: 4, NumLayers: 4, FFNDim: 192, NumClasses: 2,
		}
		seqs := make([][]int, 8)
		for s := range seqs {
			seqs[s] = make([]int, 48)
			for i := range seqs[s] {
				seqs[s][i] = (s*48 + i) % 300
			}
		}
		benchEncode(b, New(cfg, tensor.NewRNG(8)), seqs)
	})
	b.Run("bulk64", func(b *testing.B) {
		m := New(bertBaseConfig(), tensor.NewRNG(104))
		benchEncode(b, m, sentenceBatch(64, m.Config.VocabSize))
	})
}

// benchEncode times ForwardClsBatchWS of seqs on a held workspace, warmed
// first, and reports the bytes the workspace holds per packed row.
func benchEncode(b *testing.B, m *Model, seqs [][]int) {
	ws := tensor.NewWorkspace()
	m.ForwardClsBatchWS(seqs, ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		m.ForwardClsBatchWS(seqs, ws)
	}
	offsets, _ := pack(seqs, false, nil, nil)
	b.ReportMetric(float64(ws.Bytes())/float64(offsets[len(seqs)]), "arena_B/row")
}

// BenchmarkQuantizeInt8 measures converting a serving-scale decoder to the
// int8 inference form (TestQuantizeInt8BatchForwardParity pins the weight
// bytes it saves).
func BenchmarkQuantizeInt8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := New(mistralConfig(2000), tensor.NewRNG(202))
		b.StartTimer()
		m.QuantizeInt8(0)
	}
}
