package transformer

import (
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

func BenchmarkAttentionForward(b *testing.B) {
	rng := tensor.NewRNG(2)
	attn := NewMultiHeadAttention("bench", 64, 4, true, rng)
	x := tensor.New(64, 64)
	tensor.Gaussian(x, 1, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attn.Forward(x, false)
	}
}

// BenchmarkKVCacheDecode measures one cached decode step: scoring the next
// token of a 1-token suffix against a 256-token cached prefix — the ICL
// serving inner loop after the prompt cache is built — in fp32 and with
// every projection computing in integers. allocs/op should sit within a few
// allocations of zero (only returned results allocate).
func BenchmarkKVCacheDecode(b *testing.B) {
	for _, precision := range []string{"fp32", "int8"} {
		b.Run(precision, func(b *testing.B) {
			m := New(mistralConfig(300), tensor.NewRNG(7))
			if precision == "int8" {
				m.QuantizeInt8(0)
			}
			prefix := make([]int, 256)
			for i := range prefix {
				prefix[i] = i % 300
			}
			cache := m.InferKVCache(prefix)
			suffix := []int{7}
			choices := []int{10, 20}
			m.ScoreChoiceWithCache(cache, suffix, choices) // warm the workspace pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ScoreChoiceWithCache(cache, suffix, choices)
			}
		})
	}
}

// BenchmarkEncodeBatch measures the packed batched encoder forward on a
// reused worker-owned workspace (8 sequences × 48 tokens), the SFT serving
// inner loop. allocs/op should sit within a few allocations of zero.
func BenchmarkEncodeBatch(b *testing.B) {
	cfg := Config{
		Name: "bench", VocabSize: 300, MaxSeqLen: 64, DModel: 96,
		NumHeads: 4, NumLayers: 4, FFNDim: 192, NumClasses: 2,
	}
	m := New(cfg, tensor.NewRNG(8))
	seqs := make([][]int, 8)
	for s := range seqs {
		seqs[s] = make([]int, 48)
		for i := range seqs[s] {
			seqs[s][i] = (s*48 + i) % 300
		}
	}
	ws := tensor.NewWorkspace()
	m.ForwardClsBatchWS(seqs, ws) // warm the arena for this batch shape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		m.ForwardClsBatchWS(seqs, ws)
	}
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
