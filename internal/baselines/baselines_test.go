package baselines

import (
	"errors"
	"math"
	"testing"

	"repro/internal/flowbench"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

func testData(t *testing.T) *flowbench.Dataset {
	t.Helper()
	return flowbench.Generate(flowbench.Genome, 42).Subsample(800, 100, 300, 7)
}

func TestStandardizerZeroMeanUnitVar(t *testing.T) {
	ds := testData(t)
	s := fitStandardizer(ds.Train)
	x := s.Matrix(ds.Train)
	for j := 0; j < flowbench.NumFeatures; j++ {
		var mean, varsum float64
		for i := 0; i < x.Rows; i++ {
			mean += float64(x.At(i, j))
		}
		mean /= float64(x.Rows)
		for i := 0; i < x.Rows; i++ {
			d := float64(x.At(i, j)) - mean
			varsum += d * d
		}
		varsum /= float64(x.Rows)
		if math.Abs(mean) > 0.05 || math.Abs(varsum-1) > 0.1 {
			t.Fatalf("feature %d standardized to mean=%v var=%v", j, mean, varsum)
		}
	}
}

func TestStandardizerEmptyInput(t *testing.T) {
	s := fitStandardizer(nil)
	f := s.transform(flowbench.Job{})
	for _, v := range f {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("empty-fit standardizer produced non-finite output")
		}
	}
}

func TestMLPBeatsMajority(t *testing.T) {
	ds := testData(t)
	m := TrainMLP(ds.Train, DefaultMLPConfig())
	conf := m.Evaluate(ds.Test)
	majority := 1 - ds.Stats()[2].Fraction()
	if conf.Accuracy() <= majority+0.05 {
		t.Fatalf("MLP accuracy %.3f not above majority %.3f", conf.Accuracy(), majority)
	}
}

func TestNormalizedAdjacencySymmetricRows(t *testing.T) {
	adj := normalizedAdjacency(3, [][2]int{{0, 1}, {1, 2}})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if adj.At(i, j) != adj.At(j, i) {
				t.Fatal("normalized adjacency not symmetric")
			}
		}
	}
	// Isolated self-loop only node: Â[i][i] = 1 when degree is 1.
	solo := normalizedAdjacency(1, nil)
	if math.Abs(float64(solo.At(0, 0))-1) > 1e-6 {
		t.Fatalf("singleton adjacency = %v", solo.At(0, 0))
	}
}

func TestBuildTraceGraphs(t *testing.T) {
	ds := testData(t)
	graphs := buildTraceGraphs(ds.DAG, ds.Train)
	total := 0
	for _, g := range graphs {
		total += len(g.Jobs)
		if g.Adj.Rows != len(g.Jobs) || g.Adj.Cols != len(g.Jobs) {
			t.Fatal("adjacency shape mismatch")
		}
	}
	if total != len(ds.Train) {
		t.Fatalf("trace graphs cover %d jobs, want %d", total, len(ds.Train))
	}
}

func TestGCNBeatsMajority(t *testing.T) {
	ds := testData(t)
	cfg := DefaultGCNConfig()
	cfg.Epochs = 15
	g := TrainGCN(ds.DAG, ds.Train, cfg)
	conf := g.Evaluate(ds.DAG, ds.Test)
	majority := 1 - ds.Stats()[2].Fraction()
	if conf.Accuracy() <= majority {
		t.Fatalf("GCN accuracy %.3f not above majority %.3f", conf.Accuracy(), majority)
	}
}

func TestIsolationForestSeparates(t *testing.T) {
	ds := testData(t)
	f := FitIsolationForest(ds.Train, DefaultIForestConfig())
	scores := f.Score(ds.Test)
	for _, s := range scores {
		if s <= 0 || s >= 1 {
			t.Fatalf("iforest score %v outside (0,1)", s)
		}
	}
	auc := metrics.ROCAUC(Labels(ds.Test), scores)
	if auc < 0.5 {
		t.Fatalf("iforest AUC %.3f below chance", auc)
	}
}

func TestPCADetectorScores(t *testing.T) {
	ds := testData(t)
	p := FitPCA(ds.Train, 4, 5)
	scores := p.Score(ds.Test)
	if len(scores) != len(ds.Test) {
		t.Fatal("score length mismatch")
	}
	for _, s := range scores {
		if s < 0 || math.IsNaN(s) {
			t.Fatalf("pca score %v", s)
		}
	}
	// k clamps to feature count; full-rank PCA reconstructs near-perfectly.
	full := FitPCA(ds.Train, 100, 5)
	fullScores := full.Score(ds.Test[:50])
	for _, s := range fullScores {
		if s > 0.5 {
			t.Fatalf("full-rank PCA reconstruction error %v, want ≈0", s)
		}
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	ds := testData(t)
	p := FitPCA(ds.Train, 3, 6)
	for i := 0; i < 3; i++ {
		ri := p.components.Row(i)
		var norm float64
		for _, v := range ri {
			norm += float64(v) * float64(v)
		}
		if math.Abs(norm-1) > 1e-3 {
			t.Fatalf("component %d norm %v", i, norm)
		}
		for j := i + 1; j < 3; j++ {
			rj := p.components.Row(j)
			var dot float64
			for k := range ri {
				dot += float64(ri[k]) * float64(rj[k])
			}
			if math.Abs(dot) > 0.05 {
				t.Fatalf("components %d,%d not orthogonal: %v", i, j, dot)
			}
		}
	}
}

func TestMLPAEScoresAnomaliesHigher(t *testing.T) {
	ds := testData(t)
	// Unsupervised: fit on the (unlabeled) training jobs.
	ae := FitMLPAE(ds.Train, DefaultAEConfig())
	scores := ae.Score(ds.Test)
	auc := metrics.ROCAUC(Labels(ds.Test), scores)
	if auc < 0.45 {
		t.Fatalf("MLPAE AUC %.3f far below chance", auc)
	}
}

func TestGCNAEScores(t *testing.T) {
	ds := testData(t)
	cfg := DefaultAEConfig()
	cfg.Epochs = 10
	ae := FitGCNAE(ds.DAG, ds.Train, cfg)
	scores := ae.Score(ds.DAG, ds.Test)
	if len(scores) != len(ds.Test) {
		t.Fatal("score length mismatch")
	}
	for _, s := range scores {
		if math.IsNaN(s) || s < 0 {
			t.Fatalf("gcnae score %v", s)
		}
	}
}

func TestAnomalyDAEOOMGuard(t *testing.T) {
	ds := flowbench.Generate(flowbench.Genome, 42)
	// Full training split (38469 jobs) needs ~11.8 GB for the n×n structure
	// reconstruction — over a 8 GB guard, reproducing the paper's OOM row.
	_, err := FitAnomalyDAE(ds.DAG, ds.Train, DefaultAEConfig(), 8<<30)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM on full split, got %v", err)
	}
}

func TestAnomalyDAESmallGraph(t *testing.T) {
	ds := testData(t)
	cfg := DefaultAEConfig()
	cfg.Epochs = 3
	a, err := FitAnomalyDAE(ds.DAG, ds.Train[:300], cfg, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	scores := a.Score(ds.DAG, ds.Test[:100])
	if len(scores) != 100 {
		t.Fatal("score length mismatch")
	}
	for _, s := range scores {
		if math.IsNaN(s) || s < 0 {
			t.Fatalf("anomalydae score %v", s)
		}
	}
}

func TestAnomalyDAEMemoryEstimateMonotone(t *testing.T) {
	if anomalyDAEMemoryEstimate(1000) >= anomalyDAEMemoryEstimate(10000) {
		t.Fatal("memory estimate must grow with node count")
	}
	// 48k nodes ≈ 18 GB > A100's 40GB? No — but over our 8 GB guard.
	if anomalyDAEMemoryEstimate(48087) <= 8<<30 {
		t.Fatal("full genome graph must exceed the 8 GB guard")
	}
}

func TestLabelsHelper(t *testing.T) {
	jobs := []flowbench.Job{{Label: 1}, {Label: 0}, {Label: 1}}
	l := Labels(jobs)
	if l[0] != 1 || l[1] != 0 || l[2] != 1 {
		t.Fatalf("labels = %v", l)
	}
}

func TestIForestDeterministic(t *testing.T) {
	ds := testData(t)
	cfg := IForestConfig{Trees: 10, Subsample: 64, Seed: 9}
	a := FitIsolationForest(ds.Train[:200], cfg).Score(ds.Test[:20])
	b := FitIsolationForest(ds.Train[:200], cfg).Score(ds.Test[:20])
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("iforest not deterministic")
		}
	}
	_ = tensor.NewRNG(0) // keep tensor import for potential extension
}
