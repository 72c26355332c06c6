package baselines

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/flowbench"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// MLPAE is the MLP autoencoder of Sakurada & Yairi (2014), the "MLPAE" row
// of Table IV: jobs are scored by feature reconstruction error through a
// bottleneck.
type MLPAE struct {
	std *standardizer
	net *nn.Sequential
}

// AEConfig controls autoencoder training.
type AEConfig struct {
	Bottleneck int
	Epochs     int
	LR         float64
	Batch      int
	Seed       uint64
}

// DefaultAEConfig is the unsupervised baseline recipe.
func DefaultAEConfig() AEConfig {
	return AEConfig{Bottleneck: 4, Epochs: 30, LR: 1e-3, Batch: 32, Seed: 4}
}

// FitMLPAE trains the autoencoder to reconstruct (unlabeled) training jobs.
func FitMLPAE(train []flowbench.Job, cfg AEConfig) *MLPAE {
	rng := tensor.NewRNG(cfg.Seed)
	d := flowbench.NumFeatures
	m := &MLPAE{
		std: fitStandardizer(train),
		net: nn.NewSequential(
			nn.NewLinear("mlpae.enc", d, cfg.Bottleneck, rng),
			nn.NewTanh(),
			nn.NewLinear("mlpae.dec", cfg.Bottleneck, d, rng),
		),
	}
	x := m.std.Matrix(train)
	opt := nn.NewAdamW(cfg.LR, 0)
	order := rng.Perm(x.Rows)
	tape := nn.NewTape()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(order)
		for lo := 0; lo < len(order); lo += cfg.Batch {
			hi := lo + cfg.Batch
			if hi > len(order) {
				hi = len(order)
			}
			xb := tensor.New(hi-lo, d)
			for k, idx := range order[lo:hi] {
				copy(xb.Row(k), x.Row(idx))
			}
			recon := m.net.Forward(xb, tape.WS(), tape)
			_, grad := nn.MSE(recon, xb)
			m.net.Backward(tape, grad)
			tape.Reset()
			opt.Step(m.net.Params())
		}
	}
	return m
}

// Score returns per-job reconstruction errors; higher means more anomalous.
func (m *MLPAE) Score(jobs []flowbench.Job) []float64 {
	x := m.std.Matrix(jobs)
	recon := m.net.Forward(x, nil, nil)
	return rowSquaredErrors(x, recon)
}

// GCNAE is the graph autoencoder of Kipf & Welling (2016) adapted for
// attribute reconstruction, the "GCNAE" row of Table IV: a GCN encoder over
// each trace graph with a linear decoder back to node features.
type GCNAE struct {
	std  *standardizer
	enc1 *gcnLayer
	act  *nn.ReLU
	enc2 *gcnLayer
	dec  *nn.Linear
}

// FitGCNAE trains the graph autoencoder on the training jobs' trace graphs.
func FitGCNAE(dag *flowbench.DAG, train []flowbench.Job, cfg AEConfig) *GCNAE {
	rng := tensor.NewRNG(cfg.Seed)
	d := flowbench.NumFeatures
	g := &GCNAE{
		std:  fitStandardizer(train),
		enc1: newGCNLayer("gcnae.enc1", d, 16, rng),
		act:  nn.NewReLU(),
		enc2: newGCNLayer("gcnae.enc2", 16, cfg.Bottleneck, rng),
		dec:  nn.NewLinear("gcnae.dec", cfg.Bottleneck, d, rng),
	}
	graphs := buildTraceGraphs(dag, train)
	opt := nn.NewAdamW(cfg.LR, 0)
	params := g.params()
	tape := nn.NewTape()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, tg := range graphs {
			x := g.std.Matrix(tg.Jobs)
			recon := g.forward(tg.Adj, x, tape)
			_, grad := nn.MSE(recon, x)
			g.backward(tg.Adj, tape, grad)
			tape.Reset()
			opt.Step(params)
		}
	}
	return g
}

func (g *GCNAE) params() []*nn.Param {
	var out []*nn.Param
	out = append(out, g.enc1.params()...)
	out = append(out, g.enc2.params()...)
	out = append(out, g.dec.Params()...)
	return out
}

func (g *GCNAE) forward(adj, x *tensor.Matrix, tape *nn.Tape) *tensor.Matrix {
	h := g.enc1.forward(adj, x, tape)
	h = g.act.Forward(h, tape.WS(), tape)
	h = g.enc2.forward(adj, h, tape)
	return g.dec.Forward(h, tape.WS(), tape)
}

func (g *GCNAE) backward(adj *tensor.Matrix, tape *nn.Tape, grad *tensor.Matrix) {
	d := g.dec.Backward(tape, grad)
	d = g.enc2.backward(adj, tape, d)
	d = g.act.Backward(tape, d)
	g.enc1.backward(adj, tape, d)
}

// Score returns per-job reconstruction errors over trace graphs, aligned
// with the input order.
func (g *GCNAE) Score(dag *flowbench.DAG, jobs []flowbench.Job) []float64 {
	graphs := buildTraceGraphs(dag, jobs)
	scores := make(map[[2]int]float64, len(jobs))
	for _, tg := range graphs {
		x := g.std.Matrix(tg.Jobs)
		recon := g.forward(tg.Adj, x, nil)
		errs := rowSquaredErrors(x, recon)
		for i, j := range tg.Jobs {
			scores[[2]int{j.TraceID, j.NodeIndex}] = errs[i]
		}
	}
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = scores[[2]int{j.TraceID, j.NodeIndex}]
	}
	return out
}

// ErrOOM is returned when a detector's memory requirement exceeds its
// configured limit — reproducing Table IV's AnomalyDAE OOM entry.
var ErrOOM = errors.New("baselines: estimated memory exceeds limit")

// AnomalyDAE is the dual autoencoder of Fan et al. (2020): a structure
// autoencoder that reconstructs the full n×n adjacency from node embeddings
// (A ≈ σ(ZZᵀ)) plus an attribute autoencoder. The structure reconstruction
// is what makes it memory-hungry — on the full 1000 Genome job graph
// (≈48k nodes) the n×n matrix alone is ≈9 GB, which is why the paper
// reports OOM on an A100-40GB. FitAnomalyDAE estimates that requirement up
// front and returns ErrOOM when it exceeds memLimitBytes.
type AnomalyDAE struct {
	std  *standardizer
	enc  *gcnLayer
	act  *nn.ReLU
	attr *nn.Linear // attribute decoder from embeddings

	embedDim int
}

// anomalyDAEMemoryEstimate returns the bytes needed for the structure
// decoder's dense n×n reconstruction (forward + gradient, float32).
func anomalyDAEMemoryEstimate(nodes int) uint64 {
	return 2 * 4 * uint64(nodes) * uint64(nodes)
}

// FitAnomalyDAE trains the dual autoencoder over the union graph of all
// training traces, or fails with ErrOOM when the structure reconstruction
// would exceed memLimitBytes.
func FitAnomalyDAE(dag *flowbench.DAG, train []flowbench.Job, cfg AEConfig, memLimitBytes uint64) (*AnomalyDAE, error) {
	n := len(train)
	if need := anomalyDAEMemoryEstimate(n); need > memLimitBytes {
		return nil, fmt.Errorf("anomalydae on %d nodes needs %d bytes (limit %d): %w", n, need, memLimitBytes, ErrOOM)
	}
	rng := tensor.NewRNG(cfg.Seed)
	d := flowbench.NumFeatures
	a := &AnomalyDAE{
		std:      fitStandardizer(train),
		enc:      newGCNLayer("adae.enc", d, 8, rng),
		act:      nn.NewReLU(),
		attr:     nn.NewLinear("adae.attr", 8, d, rng),
		embedDim: 8,
	}
	graphs := buildTraceGraphs(dag, train)
	opt := nn.NewAdamW(cfg.LR, 0)
	params := append(a.enc.params(), a.attr.Params()...)
	tape := nn.NewTape()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, tg := range graphs {
			x := a.std.Matrix(tg.Jobs)
			z := a.act.Forward(a.enc.forward(tg.Adj, x, tape), tape.WS(), tape)
			// Structure loss: ‖σ(ZZᵀ) - Â‖²; attribute loss: ‖dec(Z) - X‖².
			zzT := tensor.MatMulT(nil, z, z)
			sigmoidInPlace(zzT)
			_, gradS := nn.MSE(zzT, tg.Adj)
			// d/dZ of σ(ZZᵀ): chain through sigmoid then both Z factors.
			for i := range gradS.Data {
				s := zzT.Data[i]
				gradS.Data[i] *= s * (1 - s)
			}
			dz := tensor.MatMul(nil, gradS, z)
			dzT := tensor.TMatMul(nil, gradS, z)
			tensor.AddScaled(dz, dzT, 1)

			xr := a.attr.Forward(z, tape.WS(), tape)
			_, gradA := nn.MSE(xr, x)
			dzAttr := a.attr.Backward(tape, gradA)
			tensor.AddScaled(dz, dzAttr, 1)

			dh := a.act.Backward(tape, dz)
			a.enc.backward(tg.Adj, tape, dh)
			tape.Reset()
			opt.Step(params)
		}
	}
	return a, nil
}

// Score returns combined structure+attribute reconstruction errors.
func (a *AnomalyDAE) Score(dag *flowbench.DAG, jobs []flowbench.Job) []float64 {
	graphs := buildTraceGraphs(dag, jobs)
	scores := make(map[[2]int]float64, len(jobs))
	for _, tg := range graphs {
		x := a.std.Matrix(tg.Jobs)
		z := a.act.Forward(a.enc.forward(tg.Adj, x, nil), nil, nil)
		zzT := tensor.MatMulT(nil, z, z)
		sigmoidInPlace(zzT)
		xr := a.attr.Forward(z, nil, nil)
		attrErr := rowSquaredErrors(x, xr)
		for i, j := range tg.Jobs {
			var structErr float64
			ar, zr := tg.Adj.Row(i), zzT.Row(i)
			for k := range ar {
				d := float64(zr[k] - ar[k])
				structErr += d * d
			}
			scores[[2]int{j.TraceID, j.NodeIndex}] = attrErr[i] + structErr/float64(len(ar))
		}
	}
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = scores[[2]int{j.TraceID, j.NodeIndex}]
	}
	return out
}

func sigmoidInPlace(m *tensor.Matrix) {
	for i, v := range m.Data {
		m.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

func rowSquaredErrors(x, recon *tensor.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		xr, rr := x.Row(i), recon.Row(i)
		var e float64
		for j := range xr {
			d := float64(xr[j] - rr[j])
			e += d * d
		}
		out[i] = e
	}
	return out
}
