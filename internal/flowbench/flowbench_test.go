package flowbench

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// validateDAG checks d's invariants: edges within range, forward-only by
// level, no duplicates, and so acyclic.
func validateDAG(d *DAG) error {
	seen := make(map[[2]int]bool, len(d.Edges))
	for _, e := range d.Edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= len(d.Nodes) || v >= len(d.Nodes) {
			return fmt.Errorf("flowbench: edge (%d,%d) out of range", u, v)
		}
		if d.Nodes[u].Level >= d.Nodes[v].Level {
			return fmt.Errorf("flowbench: edge (%d,%d) not forward by level", u, v)
		}
		if seen[e] {
			return fmt.Errorf("flowbench: duplicate edge (%d,%d)", u, v)
		}
		seen[e] = true
	}
	return nil
}

// traceTarget returns the number of traces Generate produces for wf; summed
// over the three workflows this is Flow-Bench's 1211 execution traces.
func traceTarget(wf Workflow) int {
	total := 0
	for _, s := range tableI[wf] {
		total += s[0] + s[1]
	}
	return total / len(buildDAG(wf).Nodes)
}

func TestDAGCountsMatchPaper(t *testing.T) {
	want := map[Workflow][2]int{
		Genome:  {137, 289},
		Montage: {539, 2838},
		Sales:   {165, 581},
	}
	for wf, w := range want {
		d := buildDAG(wf)
		if len(d.Nodes) != w[0] || len(d.Edges) != w[1] {
			t.Errorf("%s DAG = %d nodes / %d edges, want %d/%d",
				wf, len(d.Nodes), len(d.Edges), w[0], w[1])
		}
		if err := validateDAG(d); err != nil {
			t.Errorf("%s: %v", wf, err)
		}
	}
}

func TestDAGDeterministic(t *testing.T) {
	d1 := buildDAG(Genome)
	d2 := buildDAG(Genome)
	if len(d1.Edges) != len(d2.Edges) {
		t.Fatal("DAG construction not deterministic")
	}
	for i := range d1.Edges {
		if d1.Edges[i] != d2.Edges[i] {
			t.Fatal("DAG edges not deterministic")
		}
	}
}

func TestBuildDAGUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown workflow")
		}
	}()
	buildDAG(Workflow("bogus"))
}

func TestBaselineFeaturesPositive(t *testing.T) {
	rng := tensor.NewRNG(1)
	for taskType := range profiles {
		f := sampleBaseline(taskType, rng)
		for i, v := range f {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s feature %s = %v", taskType, FeatureNames[i], v)
			}
		}
		if f[FCPUTime] > f[FRuntime]*1.001 {
			t.Fatalf("%s cpu_time %v exceeds runtime %v", taskType, f[FCPUTime], f[FRuntime])
		}
	}
}

func TestCPUAnomalyInflatesRuntimeNotCPUTime(t *testing.T) {
	rng := tensor.NewRNG(2)
	const trials = 200
	var baseRT, anomRT, baseRatio, anomRatio float64
	for i := 0; i < trials; i++ {
		f := sampleBaseline("individuals", rng)
		baseRT += f[FRuntime]
		baseRatio += f[FCPUTime] / f[FRuntime]
		g := f
		applyAnomaly(&g, CPU2, rng)
		anomRT += g[FRuntime]
		anomRatio += g[FCPUTime] / g[FRuntime]
	}
	if anomRT < 2*baseRT {
		t.Fatalf("CPU2 runtime inflation %v, want ≥2x", anomRT/baseRT)
	}
	if anomRatio >= baseRatio {
		t.Fatal("CPU anomaly must depress the cpu_time/runtime ratio")
	}
}

func TestCPUAnomalyMagnitudeOrdering(t *testing.T) {
	rng := tensor.NewRNG(3)
	mean := func(class AnomalyClass) float64 {
		var s float64
		for i := 0; i < 300; i++ {
			f := sampleBaseline("individuals", rng)
			applyAnomaly(&f, class, rng)
			s += f[FRuntime]
		}
		return s / 300
	}
	m2, m3, m4 := mean(CPU2), mean(CPU3), mean(CPU4)
	if !(m2 > m3 && m3 > m4) {
		t.Fatalf("CPU slowdown not ordered: cpu2=%v cpu3=%v cpu4=%v", m2, m3, m4)
	}
}

func TestHDDAnomalyInflatesStageDelays(t *testing.T) {
	rng := tensor.NewRNG(4)
	var baseIn, anomIn5, anomIn10 float64
	for i := 0; i < 200; i++ {
		f := sampleBaseline("mProject", rng)
		baseIn += f[FStageInDelay]
		g5, g10 := f, f
		applyAnomaly(&g5, HDD5, rng)
		applyAnomaly(&g10, HDD10, rng)
		anomIn5 += g5[FStageInDelay]
		anomIn10 += g10[FStageInDelay]
	}
	if anomIn5 < 3*baseIn {
		t.Fatalf("HDD5 stage-in inflation %v, want large", anomIn5/baseIn)
	}
	if anomIn5 <= anomIn10 {
		t.Fatal("HDD5 (tighter cap) must be slower than HDD10")
	}
}

func TestAnomalyClassPredicates(t *testing.T) {
	for _, a := range []AnomalyClass{CPU2, CPU3, CPU4} {
		if !a.IsCPU() || a.IsHDD() {
			t.Fatalf("%v predicates wrong", a)
		}
	}
	for _, a := range []AnomalyClass{HDD5, HDD10} {
		if !a.IsHDD() || a.IsCPU() {
			t.Fatalf("%v predicates wrong", a)
		}
	}
	if None.IsCPU() || None.IsHDD() {
		t.Fatal("None predicates wrong")
	}
	if None.String() != "none" || CPU2.String() != "cpu_2" {
		t.Fatal("anomaly names wrong")
	}
}

func TestGenerateMatchesTableI(t *testing.T) {
	for _, wf := range Workflows {
		ds := Generate(wf, 42)
		spec := tableI[wf]
		stats := ds.Stats()
		for s := range spec {
			if stats[s].Normal != spec[s][0] || stats[s].Anomalous != spec[s][1] {
				t.Errorf("%s %s = %d/%d normal/anom, want %d/%d",
					wf, stats[s].Split, stats[s].Normal, stats[s].Anomalous, spec[s][0], spec[s][1])
			}
		}
	}
}

func TestGenerateTraceCountTotals1211(t *testing.T) {
	total := 0
	for _, wf := range Workflows {
		total += traceTarget(wf)
	}
	if total != 1211 {
		t.Fatalf("total traces = %d, want 1211 (Flow-Bench)", total)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Genome, 7)
	b := Generate(Genome, 7)
	for i := range a.Train[:100] {
		if a.Train[i].Features != b.Train[i].Features || a.Train[i].Label != b.Train[i].Label {
			t.Fatal("generation not deterministic")
		}
	}
	c := Generate(Genome, 8)
	same := true
	for i := range a.Train[:100] {
		if a.Train[i].Features != c.Train[i].Features {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGeneratedJobsConsistent(t *testing.T) {
	ds := Generate(Genome, 1)
	for _, j := range ds.Train[:1000] {
		if j.Label == 0 && j.Anomaly != None {
			t.Fatal("normal job carries anomaly class")
		}
		if j.Label == 1 && j.Anomaly == None {
			t.Fatal("anomalous job missing anomaly class")
		}
		if j.NodeIndex < 0 || j.NodeIndex >= len(ds.DAG.Nodes) {
			t.Fatal("node index out of range")
		}
		if j.TaskType != ds.DAG.Nodes[j.NodeIndex].TaskType {
			t.Fatal("task type mismatch with DAG node")
		}
	}
}

func TestAnomaliesAreContiguousPerTrace(t *testing.T) {
	ds := Generate(Genome, 3)
	all := append(append(append([]Job{}, ds.Train...), ds.Val...), ds.Test...)
	traces := TraceJobs(all)
	if len(traces) != traceTarget(Genome) {
		t.Fatalf("trace count = %d, want %d", len(traces), traceTarget(Genome))
	}
	for id, trace := range traces {
		if len(trace) != len(ds.DAG.Nodes) {
			t.Fatalf("trace %d has %d jobs, want %d", id, len(trace), len(ds.DAG.Nodes))
		}
		// Single contiguous anomalous segment (or none), one class per trace.
		segStarts := 0
		var class AnomalyClass
		for i, j := range trace {
			if j.Label == 1 {
				if class == None {
					class = j.Anomaly
				} else if j.Anomaly != class {
					t.Fatalf("trace %d mixes anomaly classes", id)
				}
				if i == 0 || trace[i-1].Label == 0 {
					segStarts++
				}
			}
		}
		if segStarts > 1 {
			t.Fatalf("trace %d has %d anomaly segments, want ≤1", id, segStarts)
		}
	}
}

func TestSubsampleStratified(t *testing.T) {
	ds := Generate(Genome, 5)
	sub := ds.Subsample(1000, 200, 200, 9)
	if len(sub.Train) != 1000 || len(sub.Val) != 200 || len(sub.Test) != 200 {
		t.Fatalf("subsample sizes %d/%d/%d", len(sub.Train), len(sub.Val), len(sub.Test))
	}
	fullFrac := ds.Stats()[0].Fraction()
	subFrac := sub.Stats()[0].Fraction()
	if math.Abs(fullFrac-subFrac) > 0.02 {
		t.Fatalf("subsample anomaly fraction %v, want ≈%v", subFrac, fullFrac)
	}
	// Requesting more than available returns everything.
	tiny := ds.Subsample(1, 1, 1, 9)
	big := tiny.Subsample(100, 100, 100, 9)
	if len(big.Train) != 1 {
		t.Fatal("oversized subsample must clamp")
	}
}

func TestSplitAccessor(t *testing.T) {
	ds := Generate(Genome, 6).Subsample(10, 10, 10, 1)
	if len(ds.Split("train")) != 10 || len(ds.Split("validation")) != 10 || len(ds.Split("test")) != 10 {
		t.Fatal("Split accessor returned wrong parts")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown split")
		}
	}()
	ds.Split("bogus")
}

func TestAnomalyFractionsMatchPaper(t *testing.T) {
	// The paper reports ~0.33 / ~0.20 / ~0.19 anomaly rates.
	want := map[Workflow]float64{Genome: 0.326, Montage: 0.204, Sales: 0.186}
	for wf, w := range want {
		ds := Generate(wf, 11)
		got := ds.Stats()[0].Fraction()
		if math.Abs(got-w) > 0.01 {
			t.Errorf("%s train anomaly fraction %v, want ≈%v", wf, got, w)
		}
	}
}

// Property: allocateAnomalies always hits the exact total and never exceeds
// per-trace capacity.
func TestAllocateAnomaliesExactProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		traces := 5 + rng.Intn(50)
		nodes := 10 + rng.Intn(100)
		target := rng.Intn(traces * nodes / 2)
		counts := allocateAnomalies(traces, nodes, target, rng)
		sum := 0
		for _, c := range counts {
			if c < 0 || c > nodes {
				return false
			}
			sum += c
		}
		return sum == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetJobsRecoversCompleteTraces(t *testing.T) {
	ds := Generate(Genome, 21)
	all := ds.Jobs()
	if len(all) != len(ds.Train)+len(ds.Val)+len(ds.Test) {
		t.Fatalf("Jobs() returned %d jobs, want %d", len(all), len(ds.Train)+len(ds.Val)+len(ds.Test))
	}
	// The splits shuffle jobs across traces; regrouping the full dataset must
	// recover every execution intact: traceTarget traces, each with exactly one
	// job per DAG node in node order.
	byTrace := TraceJobs(all)
	if len(byTrace) != traceTarget(Genome) {
		t.Fatalf("regrouped %d traces, want %d", len(byTrace), traceTarget(Genome))
	}
	n := len(ds.DAG.Nodes)
	for id, trace := range byTrace {
		if len(trace) != n {
			t.Fatalf("trace %d has %d jobs, want %d", id, len(trace), n)
		}
		for i, j := range trace {
			if j.NodeIndex != i {
				t.Fatalf("trace %d job %d has node index %d", id, i, j.NodeIndex)
			}
		}
	}
}
