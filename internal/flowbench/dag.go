// Package flowbench is a deterministic synthetic re-implementation of the
// Flow-Bench computational-workflow anomaly benchmark (Papadimitriou et al.,
// arXiv:2306.09930) used by the paper. It provides:
//
//   - the three workflow DAG topologies (1000 Genome, Montage, Predict
//     Future Sales) with exactly the node and edge counts the paper reports
//     (137/289, 539/2838, 165/581);
//   - a per-job feature model over the nine log-derived features the paper
//     classifies on (delays, I/O volumes, CPU time);
//   - CPU and HDD anomaly templates with magnitude subclasses, injected into
//     execution traces "at various points" as the benchmark does;
//   - train/validation/test splits whose per-split normal/anomalous job
//     counts match Table I of the paper exactly.
//
// The real Flow-Bench injects anomalies into live Pegasus executions by
// capping cores (CPU class) and throttling disk bandwidth (HDD class); here
// the same distortions are applied to synthetic baseline distributions, which
// preserves the detectable signal (multiplicative shifts in runtime/cpu_time
// and stage-in/out delays) without the testbed.
package flowbench

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// Workflow identifies one of the three Flow-Bench workflows.
type Workflow string

// The three Flow-Bench workflows.
const (
	Genome  Workflow = "1000-genome"
	Montage Workflow = "montage"
	Sales   Workflow = "predict-future-sales"
)

// Workflows lists all workflows in the paper's presentation order.
var Workflows = []Workflow{Genome, Montage, Sales}

// Node is a single task in a workflow DAG.
type Node struct {
	// TaskType is the executable category (e.g. "individuals", "mProject").
	TaskType string
	// Level is the topological layer the node belongs to.
	Level int
}

// DAG is a workflow graph. Edges are (parent, child) pairs with
// parent < child impossible to violate (nodes are stored in topological
// order).
type DAG struct {
	Workflow Workflow
	Nodes    []Node
	Edges    [][2]int
}

// levelSpec describes one layer of a layered workflow DAG: count nodes of a
// task type, each drawing fanIn edges from the previous layer (0 for source
// layers, -1 for "all of previous layer").
type levelSpec struct {
	taskType string
	count    int
	fanIn    int
}

// buildLayered constructs a layered DAG: each node in layer i>0 with
// fanIn=k gets k distinct parents from layer i-1 assigned round-robin;
// fanIn=-1 connects to every node of the previous layer.
func buildLayered(wf Workflow, levels []levelSpec) *DAG {
	d := &DAG{Workflow: wf}
	var prev []int // node indices of previous layer
	for li, spec := range levels {
		var cur []int
		for c := 0; c < spec.count; c++ {
			idx := len(d.Nodes)
			d.Nodes = append(d.Nodes, Node{TaskType: spec.taskType, Level: li})
			cur = append(cur, idx)
			switch {
			case spec.fanIn == 0 || len(prev) == 0:
				// source node
			case spec.fanIn < 0:
				for _, p := range prev {
					d.Edges = append(d.Edges, [2]int{p, idx})
				}
			default:
				for k := 0; k < spec.fanIn && k < len(prev); k++ {
					p := prev[(c*spec.fanIn+k)%len(prev)]
					d.Edges = append(d.Edges, [2]int{p, idx})
				}
			}
		}
		prev = cur
	}
	return d
}

// padEdges deterministically adds forward cross-level edges until the DAG
// has exactly target edges. Added edges always point from a lower level to a
// strictly higher level, so acyclicity is preserved. Panics if the topology
// cannot host that many edges.
func padEdges(d *DAG, target int, rng *tensor.RNG) {
	have := make(map[[2]int]bool, len(d.Edges))
	for _, e := range d.Edges {
		have[e] = true
	}
	n := len(d.Nodes)
	attempts := 0
	for len(d.Edges) < target {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if d.Nodes[u].Level >= d.Nodes[v].Level {
			attempts++
			if attempts > 200*target {
				panic(fmt.Sprintf("flowbench: cannot pad %s to %d edges", d.Workflow, target))
			}
			continue
		}
		e := [2]int{u, v}
		if have[e] {
			attempts++
			if attempts > 200*target {
				panic(fmt.Sprintf("flowbench: cannot pad %s to %d edges", d.Workflow, target))
			}
			continue
		}
		have[e] = true
		d.Edges = append(d.Edges, e)
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		if d.Edges[i][0] != d.Edges[j][0] {
			return d.Edges[i][0] < d.Edges[j][0]
		}
		return d.Edges[i][1] < d.Edges[j][1]
	})
}

// buildDAG returns the workflow's DAG with the exact node/edge counts the
// paper reports: 1000 Genome 137/289, Montage 539/2838, Sales 165/581.
func buildDAG(wf Workflow) *DAG {
	rng := tensor.NewRNG(0xf10b + uint64(len(wf)))
	var d *DAG
	var targetEdges int
	switch wf {
	case Genome:
		// individuals → individuals_merge → {mutation_overlap, frequency} →
		// summary, with sifting feeding the analysis stage.
		d = buildLayered(wf, []levelSpec{
			{"individuals", 90, 0},
			{"individuals_merge", 9, 10},
			{"sifting", 9, 1},
			{"mutation_overlap", 14, 2},
			{"frequency", 14, 2},
			{"summary", 1, -1},
		})
		targetEdges = 289
	case Montage:
		d = buildLayered(wf, []levelSpec{
			{"mProject", 120, 0},
			{"mDiffFit", 300, 2},
			{"mConcatFit", 1, -1},
			{"mBackground", 100, 1},
			{"mImgtbl", 1, -1},
			{"mAdd", 1, -1},
			{"mShrink", 10, 1},
			{"mJPEG", 6, 1},
		})
		targetEdges = 2838
	case Sales:
		d = buildLayered(wf, []levelSpec{
			{"ingest", 30, 0},
			{"preprocess", 60, 2},
			{"feature_eng", 40, 2},
			{"train_model", 20, 2},
			{"validate", 10, 2},
			{"predict", 4, 2},
			{"aggregate", 1, -1},
		})
		targetEdges = 581
	default:
		panic(fmt.Sprintf("flowbench: unknown workflow %q", wf))
	}
	if len(d.Edges) > targetEdges {
		panic(fmt.Sprintf("flowbench: %s base topology has %d edges > target %d", wf, len(d.Edges), targetEdges))
	}
	padEdges(d, targetEdges, rng)
	return d
}
