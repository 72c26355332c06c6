package core

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// cascadeTestJobs builds a gating fixture: jittered normal jobs (unique,
// parseable sentences) with a rare 666-marker anomaly every anomalyEvery
// jobs — the marker markDetector keys on, far enough out that the stage-1
// scorer isolates it. Verdicts are 1 exactly on the anomalies, so with the
// default target recall no anomaly's score lands below the calibrated
// confident-normal threshold: each one reaches stage 2 or short-circuits
// abnormal, never normal.
func cascadeTestJobs(n, anomalyEvery int) (jobs []flowbench.Job, verdicts []int) {
	jobs = make([]flowbench.Job, n)
	verdicts = make([]int, n)
	for i := range jobs {
		j := streamJob(i/8, i%8, false)
		for k := range j.Features {
			j.Features[k] = float64(10+k) + float64((i*7+k*13)%11)
		}
		if i%anomalyEvery == 0 {
			j.Features[2] = 666
			verdicts[i] = 1
		}
		jobs[i] = j
	}
	return jobs, verdicts
}

// testCascadeGate fits a stage-1 gate over the fixture against
// markDetector-style verdicts and sanity-checks that it actually separates:
// no anomaly short-circuits to normal (the recall guarantee), and at least
// one normal short-circuits (otherwise the tests below would vacuously
// pass).
func testCascadeGate(t *testing.T, jobs []flowbench.Job, verdicts []int) *cascade.Gate {
	t.Helper()
	g, err := cascade.Fit(cascade.Config{}, jobs, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	short := 0
	for i, j := range jobs {
		d := g.Decide(g.ScoreJob(j))
		if verdicts[i] == 1 && d == cascade.ShortNormal {
			t.Fatalf("calibrated gate short-circuits anomaly %d to normal", i)
		}
		if d == cascade.ShortNormal {
			short++
		}
	}
	if short == 0 {
		t.Fatal("gate short-circuits nothing; fixture provides no gating coverage")
	}
	return g
}

// TestCascadeEngineOrderPreserving: with a gate installed, concurrent detect
// requests interleave short-circuited and transformer-answered lines, and
// every response must come back in input order with the verdict the
// transformer path would have produced (normals are 0 either way; anomalies
// must pass through and be flagged by stage 2).
func TestCascadeEngineOrderPreserving(t *testing.T) {
	jobs, verdicts := cascadeTestJobs(128, 8)
	g := testCascadeGate(t, jobs, verdicts)

	reg := NewRegistry()
	if err := reg.Add("m", markDetector{}, BatchConfig{MaxBatch: 8, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.SetCascade("m", g); err != nil {
		t.Fatal(err)
	}
	srv := NewServerRegistry(reg)
	defer srv.Close()

	sentences := make([]string, len(jobs))
	for i, j := range jobs {
		sentences[i] = logparse.Sentence(j)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	bad := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker rotates the input so the batches mix differently.
			in := make([]string, len(sentences))
			want := make([]int, len(sentences))
			for i := range sentences {
				src := (i + w*17) % len(sentences)
				in[i] = sentences[src]
				want[i] = verdicts[src]
			}
			res, err := srv.DetectContext(context.Background(), in)
			if err != nil {
				errs[w] = err
				return
			}
			for i := range res {
				if res[i].Label != want[i] {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if bad[w] != 0 {
			t.Errorf("worker %d: %d results out of order or misrouted", w, bad[w])
		}
	}

	st, err := reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.CascadeEvaluated == 0 || st.CascadeShort == 0 {
		t.Fatalf("gate installed but counters flat: %+v", st)
	}
	if st.CascadePassed != st.CascadeEvaluated-st.CascadeShort {
		t.Errorf("passed %d != evaluated %d - short %d", st.CascadePassed, st.CascadeEvaluated, st.CascadeShort)
	}
	if st.CascadePassFraction <= 0 || st.CascadePassFraction >= 1 {
		t.Errorf("pass fraction %v outside (0, 1)", st.CascadePassFraction)
	}
}

// TestCascadeCountersReset: the cascade counters reset with the rest of the
// model's stats, and removing the gate stops them for new traffic and clears
// HasCascade.
func TestCascadeCountersReset(t *testing.T) {
	jobs, verdicts := cascadeTestJobs(64, 8)
	g := testCascadeGate(t, jobs, verdicts)

	reg := NewRegistry()
	if err := reg.Add("m", markDetector{}, BatchConfig{MaxBatch: 8, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.SetCascade("m", g); err != nil {
		t.Fatal(err)
	}
	srv := NewServerRegistry(reg)
	defer srv.Close()

	sentences := make([]string, len(jobs))
	for i, j := range jobs {
		sentences[i] = logparse.Sentence(j)
	}
	if _, err := srv.DetectContext(context.Background(), sentences); err != nil {
		t.Fatal(err)
	}
	st, err := reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.CascadeEvaluated == 0 {
		t.Fatalf("no cascade evaluations recorded: %+v", st)
	}
	if !reg.Info()[0].HasCascade {
		t.Fatal("ModelInfo lacks HasCascade with a gate installed")
	}

	if err := reg.ResetStats("m"); err != nil {
		t.Fatal(err)
	}
	st, err = reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.CascadeEvaluated != 0 || st.CascadeShort != 0 || st.CascadePassed != 0 || st.CascadePassFraction != 0 {
		t.Fatalf("cascade counters survived reset: %+v", st)
	}

	// Removing the gate turns the counters off for new traffic.
	if err := reg.SetCascade("m", nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.ResetStats("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DetectContext(context.Background(), sentences); err != nil {
		t.Fatal(err)
	}
	st, err = reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.CascadeEvaluated != 0 {
		t.Fatalf("cascade counters moved with no gate installed: %+v", st)
	}
	if reg.Info()[0].HasCascade {
		t.Fatal("ModelInfo reports HasCascade after the gate was removed")
	}
}

// TestCascadeMonitorParity: the monitor chunk path with a gate produces the
// same alerts and flagged traces as without one (the gate passes everything
// it was calibrated to protect), while the model's stats show stage 1
// absorbing part of the stream.
func TestCascadeMonitorParity(t *testing.T) {
	jobs, verdicts := cascadeTestJobs(128, 8)
	g := testCascadeGate(t, jobs, verdicts)

	run := func(gate *cascade.Gate) (MonitorReport, EngineStats, []string, []int) {
		var alerts []string
		var flagged []int
		s := servedModel(t, markDetector{}, BatchConfig{MaxBatch: 16}, gate)
		report, err := s.MonitorIngest(context.Background(), strings.NewReader(logOf(jobs)), false, SinkFuncs{
			OnAlert: func(a Alert) { alerts = append(alerts, a.Line) },
			OnTrace: func(v TraceVerdict) { flagged = append(flagged, v.TraceID) },
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Registry().Stats("")
		if err != nil {
			t.Fatal(err)
		}
		return report, st, alerts, flagged
	}

	base, baseSt, baseAlerts, baseFlagged := run(nil)
	casc, cascSt, cascAlerts, cascFlagged := run(g)

	if baseSt.CascadeEvaluated != 0 || baseSt.CascadeShort != 0 {
		t.Fatalf("gate-free monitor counted cascade traffic: %+v", baseSt)
	}
	if cascSt.CascadeEvaluated == 0 || cascSt.CascadeShort == 0 {
		t.Fatalf("gated monitor never short-circuited: %+v", cascSt)
	}
	if casc.Processed != base.Processed || casc.Malformed != base.Malformed {
		t.Fatalf("gated monitor processed %d/%d, base %d/%d",
			casc.Processed, casc.Malformed, base.Processed, base.Malformed)
	}
	if len(cascAlerts) != len(baseAlerts) || casc.Alerts != base.Alerts {
		t.Fatalf("alerts diverge: gated %d, base %d", len(cascAlerts), len(baseAlerts))
	}
	for i := range baseAlerts {
		if cascAlerts[i] != baseAlerts[i] {
			t.Fatalf("alert %d diverges: gated %q, base %q", i, cascAlerts[i], baseAlerts[i])
		}
	}
	if len(cascFlagged) != len(baseFlagged) || casc.FlaggedTraces != base.FlaggedTraces {
		t.Fatalf("flagged traces diverge: gated %v, base %v", cascFlagged, baseFlagged)
	}
	for i := range baseFlagged {
		if cascFlagged[i] != baseFlagged[i] {
			t.Fatalf("flagged trace %d diverges: gated %d, base %d", i, cascFlagged[i], baseFlagged[i])
		}
	}
}

// TestFitCascadeIndependentOfGOMAXPROCS: the gate FitCascade fits from a
// trained detector is byte-identical at GOMAXPROCS 1, 2 and 4, and equal to
// the gate fitted from verdicts taken in serial 256-sentence chunks. A
// sentence's verdict does not depend on the batch it is scored in.
func TestFitCascadeIndependentOfGOMAXPROCS(t *testing.T) {
	det, _ := detector(t)
	jobs := flowbench.Generate(flowbench.Genome, 9).Subsample(600, 0, 0, 12).Train
	cfg := cascade.Config{Seed: 5}
	verdicts := make([]int, len(jobs))
	for lo := 0; lo < len(jobs); lo += 256 {
		hi := min(lo+256, len(jobs))
		sentences := make([]string, 0, hi-lo)
		for _, j := range jobs[lo:hi] {
			sentences = append(sentences, logparse.Sentence(j))
		}
		for k, r := range det.DetectBatch(sentences) {
			verdicts[lo+k] = r.Label
		}
	}
	ref, err := cascade.Fit(cfg, jobs, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Positives() == 0 {
		t.Fatal("the detector flags no calibration job; the gate would fail open")
	}
	want, err := json.Marshal(ref.Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		g, err := FitCascade(det, cfg, jobs)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(g.Params())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: gate differs from the serial 256-chunk gate", procs)
		}
	}
}

// TestFitCascadeUsesDetectorVerdicts: FitCascade calibrates against what the
// detector actually flags — the positives count is exactly the set of
// detector-flagged jobs.
func TestFitCascadeUsesDetectorVerdicts(t *testing.T) {
	jobs, verdicts := cascadeTestJobs(300, 10) // not a multiple of fitChunk: a short last batch
	want := 0
	for _, v := range verdicts {
		want += v
	}
	g, err := FitCascade(markDetector{}, cascade.Config{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if g.Positives() != want {
		t.Fatalf("Positives() = %d, want %d (markDetector flags exactly the 666 markers)", g.Positives(), want)
	}
	for i, j := range jobs {
		if verdicts[i] == 1 {
			if d := g.Decide(g.ScoreJob(j)); d == cascade.ShortNormal {
				t.Fatalf("anomaly %d short-circuited to normal", i)
			}
		}
	}
}
