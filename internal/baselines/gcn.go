package baselines

import (
	"math"

	"repro/internal/flowbench"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// gcnLayer is one graph-convolution layer H' = Â·H·W + b with symmetric
// normalization Â = D^{-1/2}(A+I)D^{-1/2}. The adjacency is supplied per
// call, backward included (graphs differ per trace).
type gcnLayer struct {
	lin *nn.Linear
}

func newGCNLayer(name string, in, out int, rng *tensor.RNG) *gcnLayer {
	return &gcnLayer{lin: nn.NewLinear(name, in, out, rng)}
}

// forward computes Â·(H·W + b); adj must be the normalized adjacency.
func (g *gcnLayer) forward(adj, h *tensor.Matrix, tape *nn.Tape) *tensor.Matrix {
	hw := g.lin.Forward(h, tape.WS(), tape)
	// Â has one nonzero per neighbor per row — the sparse-rows kernel skips
	// the (majority) zero entries the dense branch-free MatMul would stream.
	return tensor.MatMulOneHotRows(nil, adj, hw)
}

// backward: dHW = Âᵀ·dout = Â·dout (symmetric), then through the linear.
func (g *gcnLayer) backward(adj *tensor.Matrix, tape *nn.Tape, dout *tensor.Matrix) *tensor.Matrix {
	dhw := tensor.MatMulOneHotRows(nil, adj, dout)
	return g.lin.Backward(tape, dhw)
}

func (g *gcnLayer) params() []*nn.Param { return g.lin.Params() }

// normalizedAdjacency builds Â = D^{-1/2}(A+I)D^{-1/2} over the undirected
// version of the edges among n nodes. Edges reference local indices.
func normalizedAdjacency(n int, edges [][2]int) *tensor.Matrix {
	a := tensor.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	for _, e := range edges {
		a.Set(e[0], e[1], 1)
		a.Set(e[1], e[0], 1)
	}
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		var d float64
		for _, v := range a.Row(i) {
			d += float64(v)
		}
		deg[i] = 1 / math.Sqrt(d)
	}
	for i := 0; i < n; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] = float32(float64(row[j]) * deg[i] * deg[j])
		}
	}
	return a
}

// traceGraph is one workflow execution as a graph: node features, labels,
// and the induced normalized adjacency over the jobs present.
type traceGraph struct {
	Jobs []flowbench.Job
	Adj  *tensor.Matrix
}

// buildTraceGraphs groups jobs by trace and builds induced subgraphs of the
// workflow DAG over the jobs present in each trace (splits are job-level, so
// a split may hold only part of a trace).
func buildTraceGraphs(dag *flowbench.DAG, jobs []flowbench.Job) []traceGraph {
	byTrace := flowbench.TraceJobs(jobs)
	// Deterministic order over trace ids.
	ids := make([]int, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && ids[k] < ids[k-1]; k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
	var out []traceGraph
	for _, id := range ids {
		trace := byTrace[id]
		local := make(map[int]int, len(trace))
		for i, j := range trace {
			local[j.NodeIndex] = i
		}
		var edges [][2]int
		for _, e := range dag.Edges {
			u, okU := local[e[0]]
			v, okV := local[e[1]]
			if okU && okV {
				edges = append(edges, [2]int{u, v})
			}
		}
		out = append(out, traceGraph{Jobs: trace, Adj: normalizedAdjacency(len(trace), edges)})
	}
	return out
}

// GCN is the supervised graph-neural-network baseline of Figure 4 (following
// the paper's reference [30]): two graph-convolution layers over trace
// graphs with a per-node classification head.
type GCN struct {
	std    *standardizer
	l1, l2 *gcnLayer
	act    *nn.ReLU
	head   *nn.Linear
}

// GCNConfig controls GCN training.
type GCNConfig struct {
	Hidden int
	Epochs int
	LR     float64
	Seed   uint64
}

// DefaultGCNConfig is the baseline recipe.
func DefaultGCNConfig() GCNConfig { return GCNConfig{Hidden: 16, Epochs: 30, LR: 5e-3, Seed: 2} }

// TrainGCN fits the GCN on the trace graphs of the training jobs.
func TrainGCN(dag *flowbench.DAG, train []flowbench.Job, cfg GCNConfig) *GCN {
	rng := tensor.NewRNG(cfg.Seed)
	g := &GCN{
		std:  fitStandardizer(train),
		l1:   newGCNLayer("gcn.l1", flowbench.NumFeatures, cfg.Hidden, rng),
		l2:   newGCNLayer("gcn.l2", cfg.Hidden, cfg.Hidden, rng),
		act:  nn.NewReLU(),
		head: nn.NewLinear("gcn.head", cfg.Hidden, 2, rng),
	}
	graphs := buildTraceGraphs(dag, train)
	opt := nn.NewAdamW(cfg.LR, 1e-4)
	ce := nn.NewSoftmaxCrossEntropy()
	params := g.params()
	tape := nn.NewTape()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, tg := range graphs {
			logits := g.forward(tg, tape)
			_, grad := ce.Loss(logits, Labels(tg.Jobs), nil)
			g.backward(tg, tape, grad)
			tape.Reset()
			opt.Step(params)
		}
	}
	return g
}

func (g *GCN) params() []*nn.Param {
	var out []*nn.Param
	out = append(out, g.l1.params()...)
	out = append(out, g.l2.params()...)
	out = append(out, g.head.Params()...)
	return out
}

func (g *GCN) forward(tg traceGraph, tape *nn.Tape) *tensor.Matrix {
	h := g.std.Matrix(tg.Jobs)
	h = g.l1.forward(tg.Adj, h, tape)
	h = g.act.Forward(h, tape.WS(), tape)
	h = g.l2.forward(tg.Adj, h, tape)
	return g.head.Forward(h, tape.WS(), tape)
}

func (g *GCN) backward(tg traceGraph, tape *nn.Tape, grad *tensor.Matrix) {
	d := g.head.Backward(tape, grad)
	d = g.l2.backward(tg.Adj, tape, d)
	d = g.act.Backward(tape, d)
	g.l1.backward(tg.Adj, tape, d)
}

// predict classifies all jobs grouped into trace graphs, returning labels
// aligned with the input order.
func (g *GCN) predict(dag *flowbench.DAG, jobs []flowbench.Job) []int {
	graphs := buildTraceGraphs(dag, jobs)
	pred := make(map[[2]int]int, len(jobs)) // (trace, node) → label
	for _, tg := range graphs {
		logits := g.forward(tg, nil)
		for i, j := range tg.Jobs {
			pred[[2]int{j.TraceID, j.NodeIndex}] = tensor.ArgMax(logits.Row(i))
		}
	}
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = pred[[2]int{j.TraceID, j.NodeIndex}]
	}
	return out
}

// Evaluate scores the GCN on jobs.
func (g *GCN) Evaluate(dag *flowbench.DAG, jobs []flowbench.Job) metrics.Confusion {
	return metrics.NewConfusion(Labels(jobs), g.predict(dag, jobs))
}
