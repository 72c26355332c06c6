package flowbench

import (
	"fmt"

	"repro/internal/tensor"
)

// tableI is the per-split (train, validation, test) × (normal, anomalous)
// job-count specification from Table I of the paper. The generator produces
// datasets matching these counts exactly.
var tableI = map[Workflow][3][2]int{
	Genome:  {{25911, 12558}, {3258, 1551}, {3229, 1580}},
	Montage: {{109738, 28246}, {13735, 3513}, {13756, 3492}},
	Sales:   {{58043, 13237}, {7250, 1660}, {7316, 1594}},
}

// SplitNames labels the three splits in Table I order.
var SplitNames = []string{"train", "validation", "test"}

// Dataset is a generated Flow-Bench-style dataset for one workflow.
type Dataset struct {
	Workflow Workflow
	DAG      *DAG
	Train    []Job
	Val      []Job
	Test     []Job
}

// Split returns the named split ("train", "validation", "test").
func (ds *Dataset) Split(name string) []Job {
	switch name {
	case "train":
		return ds.Train
	case "validation":
		return ds.Val
	case "test":
		return ds.Test
	}
	panic(fmt.Sprintf("flowbench: unknown split %q", name))
}

// Jobs returns every job in the dataset as one slice in train, validation,
// test order — the raw material for trace-level consumers (the scenario lab
// regroups it with TraceJobs to recover complete executions, since the
// splits shuffle jobs across traces).
func (ds *Dataset) Jobs() []Job {
	out := make([]Job, 0, len(ds.Train)+len(ds.Val)+len(ds.Test))
	out = append(out, ds.Train...)
	out = append(out, ds.Val...)
	out = append(out, ds.Test...)
	return out
}

// Generate produces the full dataset for a workflow: Table I's jobs laid out
// as complete execution traces over the workflow DAG (1211 traces over the
// three workflows), with CPU/HDD anomalies injected at various points, split
// so each split's normal/anomalous counts equal Table I exactly. Generation
// is deterministic in seed.
func Generate(wf Workflow, seed uint64) *Dataset {
	d := buildDAG(wf)
	spec, ok := tableI[wf]
	if !ok {
		panic(fmt.Sprintf("flowbench: unknown workflow %q", wf))
	}
	n := len(d.Nodes)
	totalJobs, totalAnom := 0, 0
	for _, s := range spec {
		totalJobs += s[0] + s[1]
		totalAnom += s[1]
	}
	if totalJobs%n != 0 {
		panic(fmt.Sprintf("flowbench: %s total jobs %d not divisible by %d nodes", wf, totalJobs, n))
	}
	traces := totalJobs / n

	rng := tensor.NewRNG(seed ^ uint64(len(wf))<<32)
	counts := allocateAnomalies(traces, n, totalAnom, rng)

	jobs := make([]Job, totalJobs)
	for t := 0; t < traces; t++ {
		generateTrace(jobs[t*n:(t+1)*n], d, t, counts[t], rng)
	}

	return split(wf, d, jobs, spec, rng)
}

// allocateAnomalies distributes totalAnom anomalous jobs over traces: about
// 70% of traces are anomaly candidates with sizes drawn uniformly, then
// counts are nudged round-robin until the total is exact.
func allocateAnomalies(traces, nodes, totalAnom int, rng *tensor.RNG) []int {
	counts := make([]int, traces)
	candidates := (traces*7 + 9) / 10
	order := rng.Perm(traces)
	sum := 0
	for i := 0; i < candidates; i++ {
		lo, hi := nodes/10, nodes*6/10
		c := lo + rng.Intn(hi-lo+1)
		counts[order[i]] = c
		sum += c
	}
	// Nudge to exact total.
	for i := 0; sum != totalAnom; i = (i + 1) % candidates {
		t := order[i]
		if sum < totalAnom && counts[t] < nodes {
			counts[t]++
			sum++
		} else if sum > totalAnom && counts[t] > 0 {
			counts[t]--
			sum--
		}
	}
	return counts
}

// generateTrace writes the jobs of one workflow execution into out (one per
// DAG node), injecting anomCount anomalous nodes as a contiguous topological
// segment starting at a random point (matching Flow-Bench's "injected at
// various points").
func generateTrace(out []Job, d *DAG, traceID, anomCount int, rng *tensor.RNG) {
	n := len(out)
	var class AnomalyClass = None
	start, end := 0, 0
	if anomCount > 0 {
		class = AnomalyClasses[rng.Intn(len(AnomalyClasses))]
		if anomCount < n {
			start = rng.Intn(n - anomCount + 1)
		}
		end = start + anomCount
	}
	for i := range out {
		j := &out[i]
		taskType := d.Nodes[i].TaskType
		*j = Job{
			Workflow:  d.Workflow,
			TraceID:   traceID,
			NodeIndex: i,
			TaskType:  taskType,
			Features:  sampleBaseline(taskType, rng),
		}
		if i >= start && i < end {
			applyAnomaly(&j.Features, class, rng)
			j.Label = 1
			j.Anomaly = class
		}
	}
}

// split partitions jobs into train/val/test with the exact per-split
// normal/anomalous counts of spec, shuffling within each stratum. The
// shuffles permute indices; each split is gathered from jobs once.
func split(wf Workflow, d *DAG, jobs []Job, spec [3][2]int, rng *tensor.RNG) *Dataset {
	normal, anom := partition(jobs)
	shuffle(normal, rng)
	shuffle(anom, rng)
	wantNormal := spec[0][0] + spec[1][0] + spec[2][0]
	wantAnom := spec[0][1] + spec[1][1] + spec[2][1]
	if len(normal) != wantNormal || len(anom) != wantAnom {
		panic(fmt.Sprintf("flowbench: %s generated %d/%d normal/anomalous, want %d/%d",
			wf, len(normal), len(anom), wantNormal, wantAnom))
	}
	ds := &Dataset{Workflow: wf, DAG: d}
	parts := [3]*[]Job{&ds.Train, &ds.Val, &ds.Test}
	ni, ai := 0, 0
	for s, counts := range spec {
		idx := make([]int32, 0, counts[0]+counts[1])
		idx = append(idx, normal[ni:ni+counts[0]]...)
		idx = append(idx, anom[ai:ai+counts[1]]...)
		ni += counts[0]
		ai += counts[1]
		shuffle(idx, rng)
		*parts[s] = gather(jobs, idx)
	}
	return ds
}

// partition returns the indices of jobs' normal and anomalous entries, each
// in input order.
func partition(jobs []Job) (normal, anom []int32) {
	nAnom := 0
	for i := range jobs {
		if jobs[i].Label != 0 {
			nAnom++
		}
	}
	normal = make([]int32, 0, len(jobs)-nAnom)
	anom = make([]int32, 0, nAnom)
	for i := range jobs {
		if jobs[i].Label == 0 {
			normal = append(normal, int32(i))
		} else {
			anom = append(anom, int32(i))
		}
	}
	return normal, anom
}

// shuffle is a Fisher–Yates shuffle drawing one rng.Intn per position.
func shuffle(idx []int32, rng *tensor.RNG) {
	for i := len(idx) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// gather returns the jobs at idx, in idx order.
func gather(jobs []Job, idx []int32) []Job {
	out := make([]Job, len(idx))
	for k, i := range idx {
		out[k] = jobs[i]
	}
	return out
}

// Subsample returns a smaller dataset with stratified (label-preserving)
// random subsets of each split — the working scale for CPU-bound training
// experiments. Requested sizes are clamped to the available split sizes.
func (ds *Dataset) Subsample(nTrain, nVal, nTest int, seed uint64) *Dataset {
	rng := tensor.NewRNG(seed)
	out := &Dataset{Workflow: ds.Workflow, DAG: ds.DAG}
	out.Train = stratifiedSample(ds.Train, nTrain, rng)
	out.Val = stratifiedSample(ds.Val, nVal, rng)
	out.Test = stratifiedSample(ds.Test, nTest, rng)
	return out
}

func stratifiedSample(jobs []Job, n int, rng *tensor.RNG) []Job {
	if n >= len(jobs) {
		out := make([]Job, len(jobs))
		copy(out, jobs)
		return out
	}
	normal, anom := partition(jobs)
	frac := float64(len(anom)) / float64(len(jobs))
	nAnom := int(frac*float64(n) + 0.5)
	if nAnom > len(anom) {
		nAnom = len(anom)
	}
	nNormal := n - nAnom
	if nNormal > len(normal) {
		nNormal = len(normal)
	}
	shuffle(normal, rng)
	shuffle(anom, rng)
	idx := make([]int32, 0, nNormal+nAnom)
	idx = append(idx, normal[:nNormal]...)
	idx = append(idx, anom[:nAnom]...)
	shuffle(idx, rng)
	return gather(jobs, idx)
}

// SplitStats summarizes one split for Table I.
type SplitStats struct {
	Split     string
	Normal    int
	Anomalous int
}

// Fraction returns the anomaly rate of the split.
func (s SplitStats) Fraction() float64 {
	t := s.Normal + s.Anomalous
	if t == 0 {
		return 0
	}
	return float64(s.Anomalous) / float64(t)
}

// Stats returns per-split statistics in Table I order.
func (ds *Dataset) Stats() [3]SplitStats {
	count := func(name string, jobs []Job) SplitStats {
		st := SplitStats{Split: name}
		for _, j := range jobs {
			if j.Label == 0 {
				st.Normal++
			} else {
				st.Anomalous++
			}
		}
		return st
	}
	return [3]SplitStats{
		count("train", ds.Train),
		count("validation", ds.Val),
		count("test", ds.Test),
	}
}

// TraceJobs groups a job slice by trace, returning jobs ordered by node
// index within each trace (for graph-based baselines and online detection).
func TraceJobs(jobs []Job) map[int][]Job {
	out := make(map[int][]Job)
	for _, j := range jobs {
		out[j.TraceID] = append(out[j.TraceID], j)
	}
	for _, trace := range out {
		for i := 1; i < len(trace); i++ {
			for k := i; k > 0 && trace[k].NodeIndex < trace[k-1].NodeIndex; k-- {
				trace[k], trace[k-1] = trace[k-1], trace[k]
			}
		}
	}
	return out
}
