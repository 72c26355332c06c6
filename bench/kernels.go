package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/tensor"
	"repro/internal/transformer"
)

// hostCeiling measures what pure Go can reach on this machine with every
// core busy: a multiply-add loop on registers (GFLOP/s) and a streaming read
// of a buffer far larger than cache (GB/s). They are the denominators of the
// frac_of_peak metrics: the compiler, not the datasheet, sets this ceiling.
func hostCeiling() (fmaGflops, streamGBs float64) {
	procs := runtime.GOMAXPROCS(0)
	const iters = 1 << 25
	sums := make([]float32, procs)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sums[p] = fmaLoop(iters)
		}(p)
	}
	wg.Wait()
	fmaGflops = float64(procs) * iters * 8 * 2 / time.Since(start).Seconds() / 1e9

	const words = 16 << 20 // 64 MiB per goroutine
	bufs := make([][]float32, procs)
	for p := range bufs {
		bufs[p] = make([]float32, words)
	}
	start = time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b := bufs[p]
			var s0, s1, s2, s3 float32
			for i := 0; i+4 <= len(b); i += 4 {
				s0 += b[i]
				s1 += b[i+1]
				s2 += b[i+2]
				s3 += b[i+3]
			}
			sums[p] += s0 + s1 + s2 + s3
		}(p)
	}
	wg.Wait()
	streamGBs = float64(procs) * words * 4 / time.Since(start).Seconds() / 1e9
	for _, s := range sums {
		hostSink += s
	}
	return fmaGflops, streamGBs
}

// hostSink keeps the loops' results alive so the compiler cannot drop them.
var hostSink float32

// fmaLoop runs n rounds of eight independent multiply-adds.
func fmaLoop(n int) float32 {
	a0, a1, a2, a3, a4, a5, a6, a7 := float32(1), float32(2), float32(3), float32(4), float32(5), float32(6), float32(7), float32(8)
	const x, y = float32(0.9999), float32(0.0001)
	for i := 0; i < n; i++ {
		a0 = a0*x + y
		a1 = a1*x + y
		a2 = a2*x + y
		a3 = a3*x + y
		a4 = a4*x + y
		a5 = a5*x + y
		a6 = a6*x + y
		a7 = a7*x + y
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// kernelTimes accumulates, per kernel family, the time spent and the work
// done. Operation counts are computed from the shapes, not measured.
type kernelTimes struct {
	matmul, matmulQ8, scores, values, softmax time.Duration
	matmulFlops, matmulQ8Ops                  float64
	scoresFlops, valuesFlops, softmaxElems    float64
}

// replay is the tensor depth of the ladder: it issues, against random
// weights of the model's shapes, the kernel calls one forward pass makes for
// sequences of the given lengths (attending a cached prefix of past tokens),
// and nothing else — no layer norms, activations, embeddings, heads or
// bookkeeping.
// What the transformer depth takes beyond this is the transformer's own.
type replay struct {
	cfg    transformer.Config
	int8   bool
	wAttn  *tensor.Matrix // [d, d]
	wUp    *tensor.Matrix // [d, ffn]
	wDown  *tensor.Matrix // [ffn, d]
	qAttn  *tensor.QInt8Matrix
	qUp    *tensor.QInt8Matrix
	qDown  *tensor.QInt8Matrix
	pastKV *tensor.Matrix // [past, d], stands in for one layer's cached K and V
	ws     *tensor.Workspace
}

func newReplay(cfg transformer.Config, int8 bool, past int) *replay {
	rng := tensor.NewRNG(1)
	random := func(r, c int) *tensor.Matrix {
		m := tensor.New(r, c)
		tensor.Gaussian(m, 0.05, rng)
		return m
	}
	r := &replay{cfg: cfg, int8: int8, ws: tensor.NewWorkspace()}
	r.wAttn, r.wUp, r.wDown = random(cfg.DModel, cfg.DModel), random(cfg.DModel, cfg.FFNDim), random(cfg.FFNDim, cfg.DModel)
	if int8 {
		r.qAttn, r.qUp, r.qDown = tensor.QuantizeInt8(r.wAttn, 0), tensor.QuantizeInt8(r.wUp, 0), tensor.QuantizeInt8(r.wDown, 0)
	}
	if past > 0 {
		r.pastKV = random(past, cfg.DModel)
	}
	return r
}

func (r *replay) linear(x, w *tensor.Matrix, q *tensor.QInt8Matrix, acc *kernelTimes) *tensor.Matrix {
	start := time.Now()
	var y *tensor.Matrix
	ops := 2 * float64(x.Rows) * float64(w.Rows) * float64(w.Cols)
	if r.int8 {
		y = tensor.MatMulQ8(r.ws.Get(x.Rows, w.Cols), x, q, r.ws)
		acc.matmulQ8 += time.Since(start)
		acc.matmulQ8Ops += ops
	} else {
		y = tensor.MatMulBlocked(r.ws.Get(x.Rows, w.Cols), x, w)
		acc.matmul += time.Since(start)
		acc.matmulFlops += ops
	}
	return y
}

// run replays one forward pass over sequences of the given token counts,
// adding the time and work of each kernel family to acc.
func (r *replay) run(lens []int, acc *kernelTimes) {
	cfg, ws := r.cfg, r.ws
	ws.Reset()
	total, maxT := 0, 0
	for _, t := range lens {
		total += t
		maxT = max(maxT, t)
	}
	past := 0
	if r.pastKV != nil {
		past = r.pastKV.Rows
	}
	dh := cfg.DModel / cfg.NumHeads
	x := ws.GetZeroed(total, cfg.DModel)
	concat := ws.Get(total, cfg.DModel)
	scoresBuf := ws.Get(maxT, past+maxT)
	for l := 0; l < cfg.NumLayers; l++ {
		var q, k, v *tensor.Matrix
		if r.int8 {
			start := time.Now()
			qa := tensor.QuantizeRowsQ8(x, r.qAttn.Block, ws)
			q = tensor.MatMulQ8Pre(ws.Get(total, cfg.DModel), qa, r.qAttn)
			k = tensor.MatMulQ8Pre(ws.Get(total, cfg.DModel), qa, r.qAttn)
			v = tensor.MatMulQ8Pre(ws.Get(total, cfg.DModel), qa, r.qAttn)
			acc.matmulQ8 += time.Since(start)
			acc.matmulQ8Ops += 3 * 2 * float64(total) * float64(cfg.DModel) * float64(cfg.DModel)
		} else {
			q, k, v = r.linear(x, r.wAttn, nil, acc), r.linear(x, r.wAttn, nil, acc), r.linear(x, r.wAttn, nil, acc)
		}
		lo := 0
		for _, t := range lens {
			qs, ks, vs, cs := ws.RowView(q, lo, lo+t), ws.RowView(k, lo, lo+t), ws.RowView(v, lo, lo+t), ws.RowView(concat, lo, lo+t)
			lo += t
			scores := ws.ShapedView(scoresBuf, t, past+t)
			work := 2 * float64(t) * float64(past+t) * float64(dh)
			for h := 0; h < cfg.NumHeads; h++ {
				off := h * dh
				start := time.Now()
				if past > 0 {
					tensor.MatMulTStrided(scores, 0, qs, off, r.pastKV, off, dh)
				}
				tensor.MatMulTStrided(scores, past, qs, off, ks, off, dh)
				t1 := time.Now()
				tensor.ScaledMaskedRowSoftmax(scores, 0.125, past, cfg.Causal)
				t2 := time.Now()
				if past > 0 {
					tensor.MatMulStrided(cs, off, scores, 0, past, r.pastKV, off, dh)
					tensor.MatMulStridedAcc(cs, off, scores, past, t, vs, off, dh)
				} else {
					tensor.MatMulStrided(cs, off, scores, 0, t, vs, off, dh)
				}
				acc.scores += t1.Sub(start)
				acc.softmax += t2.Sub(t1)
				acc.values += time.Since(t2)
				acc.scoresFlops += work
				acc.valuesFlops += work
				acc.softmaxElems += float64(t) * float64(past+t)
			}
		}
		x = r.linear(r.linear(r.linear(concat, r.wAttn, r.qAttn, acc), r.wUp, r.qUp, acc), r.wDown, r.qDown, acc)
	}
}

func rate(work float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return work / d.Seconds()
}
