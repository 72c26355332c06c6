package tensor

import (
	"fmt"
	"testing"
)

// Benchmarks at the shapes the served models actually issue, so kernel work
// is judged on what runs in production rather than on 128-wide squares:
// bert-base-uncased here is dModel 48 / FFN 96 / head width 12, mistral is
// 96 / 192 / 24, a log line tokenizes to ~27 tokens (32 at the cap), a
// 64-line batch packs to ~1728 rows, and the ICL few-shot prefix caches ~320
// keys. Each sub-benchmark reports GFLOP/s (2 flops per multiply-add) or
// ns/elem beside ns/op.

var (
	serveSinkM *Matrix
	serveSinkF float32
)

func reportGFlops(b *testing.B, madds int) {
	b.ReportMetric(2*float64(madds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func reportNsPerElem(b *testing.B, elems int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

func BenchmarkServeShapes(b *testing.B) {
	dense := []struct {
		model string
		k, p  int
	}{
		{"bert", 48, 48}, {"bert", 48, 96}, {"bert", 96, 48},
		{"mistral", 96, 96}, {"mistral", 96, 192}, {"mistral", 192, 96},
	}
	for _, d := range dense {
		for _, rows := range []int{1, 32, 1728} {
			b.Run(fmt.Sprintf("dense/%s_%dx%d/rows=%d", d.model, d.k, d.p, rows), func(b *testing.B) {
				x, w, dst := randMatrix(rows, d.k, 1), randMatrix(d.k, d.p, 2), New(rows, d.p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serveSinkM = MatMulBlocked(dst, x, w)
				}
				reportGFlops(b, rows*d.k*d.p)
			})
		}
	}

	// Training runs one sequence at a time through the allocating kernels:
	// forward x·W, weight gradient xᵀ·dy, input gradient dy·Wᵀ.
	const T = 27
	x, dy, w := randMatrix(T, 48, 1), randMatrix(T, 96, 2), randMatrix(48, 96, 3)
	for _, tr := range []struct {
		name string
		run  func() *Matrix
	}{
		{"MatMul_27x48x96", func() *Matrix { return MatMul(nil, x, w) }},
		{"TMatMul_27x48x96", func() *Matrix { return TMatMul(nil, x, dy) }},
		{"MatMulT_27x96x48", func() *Matrix { return MatMulT(nil, dy, w) }},
	} {
		b.Run("train/"+tr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveSinkM = tr.run()
			}
			reportGFlops(b, T*48*96)
		})
	}

	// Attention over one sequence, all heads: the per-head strided calls of
	// transformer.inferBatch against a [prefix | current] score matrix.
	for _, dh := range []int{12, 24} {
		const heads = 4
		dModel := heads * dh
		for _, T := range []int{27, 32} {
			for _, prefix := range []int{0, 320} {
				name := fmt.Sprintf("dh=%d/T=%d/prefix=%d", dh, T, prefix)
				q, k, v := randMatrix(T, dModel, 3), randMatrix(T, dModel, 4), randMatrix(T, dModel, 5)
				pk, pv := randMatrix(prefix, dModel, 6), randMatrix(prefix, dModel, 7)
				scores, concat := New(T, prefix+T), New(T, dModel)
				b.Run("scores/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for h := 0; h < heads; h++ {
							if prefix > 0 {
								MatMulTStrided(scores, 0, q, h*dh, pk, h*dh, dh)
							}
							MatMulTStrided(scores, prefix, q, h*dh, k, h*dh, dh)
						}
					}
					serveSinkM = scores
					reportGFlops(b, heads*T*(prefix+T)*dh)
				})
				probs := randMatrix(T, prefix+T, 8)
				b.Run("values/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for h := 0; h < heads; h++ {
							if prefix > 0 {
								MatMulStrided(concat, h*dh, probs, 0, prefix, pv, h*dh, dh)
								MatMulStridedAcc(concat, h*dh, probs, prefix, T, v, h*dh, dh)
							} else {
								MatMulStrided(concat, h*dh, probs, 0, T, v, h*dh, dh)
							}
						}
					}
					serveSinkM = concat
					reportGFlops(b, heads*T*(prefix+T)*dh)
				})
			}
		}
	}

	for _, shape := range [][2]int{{27, 27}, {32, 352}} {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("softmax/%dx%d", rows, cols), func(b *testing.B) {
			src, m := randMatrix(rows, cols, 9), New(rows, cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				ScaledMaskedRowSoftmax(m, 0.2886751, cols-rows, true)
			}
			serveSinkM = m
			reportNsPerElem(b, rows*cols)
		})
	}

	// The FFN activation: a packed 64-line bert batch, and a 32-line mistral
	// chunk at the 32-token cap.
	for _, shape := range [][2]int{{1728, 96}, {1024, 192}} {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("gelu/%dx%d", rows, cols), func(b *testing.B) {
			src, dst := randMatrix(rows, cols, 11), New(rows, cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GELU(dst.Data, src.Data)
			}
			serveSinkM = dst
			reportNsPerElem(b, rows*cols)
		})
	}

	for _, fn := range []struct {
		name string
		f    func(float32) float32
	}{{"ExpFast32", expFast32}, {"TanhFast32", TanhFast32}} {
		b.Run(fn.name, func(b *testing.B) {
			xs := randMatrix(1, 4096, 10).Data // mixed signs, as GELU sees them
			var s float32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range xs {
					s += fn.f(x)
				}
			}
			serveSinkF = s
			reportNsPerElem(b, len(xs))
		})
	}
}
