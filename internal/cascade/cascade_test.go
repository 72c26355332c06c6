package cascade

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// calJobs builds a deterministic calibration set: mostly-normal jobs with
// integer-valued jittered features (so their sentences parse back bit-exactly)
// and a rare point anomaly carrying the far-out marker value 666 in feature 2.
// Returns the jobs and the stage-2 verdicts (1 exactly on the anomalies).
func calJobs(n, anomalyEvery int) ([]flowbench.Job, []int) {
	jobs := make([]flowbench.Job, n)
	verdicts := make([]int, n)
	for i := range jobs {
		j := flowbench.Job{Workflow: flowbench.Genome, TraceID: i / 8, NodeIndex: i % 8, TaskType: "t"}
		for k := range j.Features {
			j.Features[k] = float64(10+k) + float64((i*7+k*13)%11)
		}
		if anomalyEvery > 0 && i%anomalyEvery == 0 {
			j.Features[2] = 666
			j.Label = 1
			verdicts[i] = 1
		}
		jobs[i] = j
	}
	return jobs, verdicts
}

func fitGate(t *testing.T, cfg Config, jobs []flowbench.Job, verdicts []int) *Gate {
	t.Helper()
	g, err := Fit(cfg, jobs, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFitValidation pins the loud-failure contract on bad calibration input.
func TestFitValidation(t *testing.T) {
	jobs, verdicts := calJobs(32, 8)
	cases := []struct {
		name     string
		cfg      Config
		jobs     []flowbench.Job
		verdicts []int
	}{
		{"no jobs", Config{}, nil, nil},
		{"verdict count mismatch", Config{}, jobs, verdicts[:len(verdicts)-1]},
		{"recall above one", Config{TargetRecall: 1.5}, jobs, verdicts},
		{"negative recall", Config{TargetRecall: -0.1}, jobs, verdicts},
	}
	for _, tc := range cases {
		if _, err := Fit(tc.cfg, tc.jobs, tc.verdicts); err == nil {
			t.Errorf("%s: Fit accepted invalid input", tc.name)
		}
	}
}

// TestFitDeterminism: calibration is a pure function of (config, jobs,
// verdicts) — two fits on identical input export identical parameters. This
// is what makes artifact-embedded gates and re-fits at serve startup
// interchangeable.
func TestFitDeterminism(t *testing.T) {
	jobs, verdicts := calJobs(256, 16)
	a := fitGate(t, Config{}, jobs, verdicts)
	b := fitGate(t, Config{}, jobs, verdicts)
	if !reflect.DeepEqual(a.Params(), b.Params()) {
		t.Error("identical fits exported different params")
	}
}

// TestCalibratedRecall: on real Flow-Bench traffic, at least TargetRecall of
// the calibration positives must score at or above the confident-normal
// threshold — the property that bounds how much stage 1 can cost stage 2.
func TestCalibratedRecall(t *testing.T) {
	ds := flowbench.Generate(flowbench.Genome, 42)
	verdicts := make([]int, len(ds.Train))
	for i, j := range ds.Train {
		verdicts[i] = j.Label
	}
	const recall = 0.9 // off-default so the quantile index is nonzero
	g := fitGate(t, Config{TargetRecall: recall}, ds.Train, verdicts)
	var pos, kept int
	for i, j := range ds.Train {
		if verdicts[i] != 1 {
			continue
		}
		pos++
		if g.ScoreJob(j) >= g.Low() {
			kept++
		}
	}
	if pos == 0 {
		t.Fatal("dataset has no calibration positives")
	}
	if got := float64(kept) / float64(pos); got < recall {
		t.Errorf("%d/%d positives (%.3f) reach the transformer, want >= %.3f", kept, pos, got, recall)
	}
	if g.Positives() != pos {
		t.Errorf("Positives() = %d, want %d", g.Positives(), pos)
	}
	if g.TargetRecall() != recall {
		t.Errorf("TargetRecall() = %v, want %v", g.TargetRecall(), recall)
	}
}

// TestFailOpenWithoutPositives: nothing flagged by either the transformer or
// the ground truth means nothing to calibrate against, so the gate must pass
// every line rather than inventing a threshold.
func TestFailOpenWithoutPositives(t *testing.T) {
	jobs, verdicts := calJobs(64, 0)
	g := fitGate(t, Config{}, jobs, verdicts)
	if g.Positives() != 0 {
		t.Fatalf("Positives() = %d, want 0", g.Positives())
	}
	for _, j := range jobs {
		if d := g.Decide(g.ScoreJob(j)); d != PassThrough {
			t.Fatalf("fail-open gate decided %v, want PassThrough", d)
		}
	}
}

// TestAbnormalBand: always calibrated — the highest training scores
// short-circuit abnormal with the thresholds ordered — except when
// calibration saw no negatives, which leaves nothing to bound the
// false-abnormal rate by, so even an extreme score only passes through.
func TestAbnormalBand(t *testing.T) {
	jobs, verdicts := calJobs(256, 16)
	on := fitGate(t, Config{}, jobs, verdicts)
	if on.high == math.MaxFloat64 {
		t.Fatal("default gate never calibrated its high threshold")
	}
	if on.high < on.Low() {
		t.Fatalf("high %v < Low() %v", on.high, on.Low())
	}
	if d := on.Decide(on.high); d != ShortAbnormal {
		t.Fatalf("score at high decided %v, want ShortAbnormal", d)
	}

	allPos, allVerdicts := calJobs(64, 1) // every job flagged: no negatives
	off := fitGate(t, Config{}, allPos, allVerdicts)
	if off.high != math.MaxFloat64 {
		t.Fatalf("high without negatives = %v, want math.MaxFloat64", off.high)
	}
	if d := off.Decide(1e300); d != PassThrough {
		t.Fatalf("gate without negatives decided %v on an extreme score, want PassThrough", d)
	}
}

// TestNGramUnseenPasses: a key never observed during calibration has no
// evidence either way, so it must reach stage 2 regardless of where the
// recall quantiles landed — the structural caps on both thresholds.
func TestNGramUnseenPasses(t *testing.T) {
	jobs, verdicts := calJobs(256, 2) // half the traffic flagged: high lands low
	g := fitGate(t, Config{}, jobs, verdicts)
	unseen := flowbench.Job{TaskType: "t"}
	for k := range unseen.Features {
		unseen.Features[k] = 1e9 + float64(k)*1e10 // buckets no calJobs feature hits
	}
	sc := g.ScoreJob(unseen)
	if sc != 0.5 {
		t.Fatalf("unseen key scored %v, want 0.5", sc)
	}
	if d := g.Decide(sc); d != PassThrough {
		t.Fatalf("unseen key decided %v, want PassThrough (low %v, high %v)", d, g.Low(), g.high)
	}
}

// TestDecideBands pins the routing arithmetic around the thresholds.
func TestDecideBands(t *testing.T) {
	jobs, verdicts := calJobs(256, 16)
	g := fitGate(t, Config{}, jobs, verdicts)
	if d := g.Decide(g.Low() - 1e-9); d != ShortNormal {
		t.Errorf("just below Low: %v, want ShortNormal", d)
	}
	if d := g.Decide(g.Low()); d != PassThrough {
		t.Errorf("at Low: %v, want PassThrough", d)
	}
	// Prob is monotone in the score and crosses 0.5 exactly at Low.
	if p := g.Prob(g.Low()); p != 0.5 {
		t.Errorf("Prob(Low) = %v, want 0.5", p)
	}
	if !(g.Prob(g.Low()-g.scale) < 0.5 && g.Prob(g.Low()+g.scale) > 0.5) {
		t.Error("Prob not monotone around Low")
	}
	// Majority, the brownout tier's rule, splits at the unseen score.
	if g.Majority(ngramUnseen) != 1 || g.Majority(math.Nextafter(ngramUnseen, 0)) != 0 {
		t.Error("Majority does not split at the unseen score")
	}
}

// TestParamsRoundTrip: export → rebuild must preserve every score and routing
// decision bit-exactly — the artifact v3 contract.
func TestParamsRoundTrip(t *testing.T) {
	jobs, verdicts := calJobs(256, 16)
	g := fitGate(t, Config{}, jobs, verdicts)
	back, err := FromParams(g.Params())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Params(), g.Params()) {
		t.Error("params changed across round-trip")
	}
	for i, j := range jobs {
		ws, bs := g.ScoreJob(j), back.ScoreJob(j)
		if ws != bs {
			t.Fatalf("job %d scored %v before, %v after round-trip", i, ws, bs)
		}
		if g.Decide(ws) != back.Decide(bs) {
			t.Fatalf("job %d routed differently after round-trip", i)
		}
	}
}

// TestGateParamsGolden pins the bytes a calibrated gate saves: the SHA-256
// of the JSON an artifact's cascade section holds, for a default-config gate
// fitted on a Genome training split with the jobs' labels as verdicts.
func TestGateParamsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest is recorded on amd64; the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
	train := flowbench.Generate(flowbench.Genome, 6).Train
	verdicts := make([]int, len(train))
	for i, j := range train {
		verdicts[i] = j.Label
	}
	raw, err := json.Marshal(fitGate(t, Config{}, train, verdicts).Params())
	if err != nil {
		t.Fatal(err)
	}
	const want = "770edb3174106d0793e76bb961127eba87572906d2b293f1130fb0cf18ca1a75"
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("gate params SHA-256 %x, want %s", sum, want)
	}
}

// TestFromParamsRejectsInvalid: artifacts are untrusted input, so corrupt
// gate parameters must fail loudly instead of misrouting traffic — and so
// must a gate calibrated for a stage-1 scorer this build does not have.
func TestFromParamsRejectsInvalid(t *testing.T) {
	jobs, verdicts := calJobs(64, 8)
	good := fitGate(t, Config{}, jobs, verdicts).Params()
	// mutate deep-copies the ngram table so each case corrupts its own copy.
	mutate := func(f func(*Params)) Params {
		p := good
		ng := *p.NGram
		ng.Idx = append([]uint32(nil), ng.Idx...)
		ng.N = append([]uint32(nil), ng.N...)
		ng.Pos = append([]uint32(nil), ng.Pos...)
		p.NGram = &ng
		f(&p)
		return p
	}
	cases := []struct {
		name string
		p    Params
	}{
		{"NaN low", mutate(func(p *Params) { p.Low = math.NaN() })},
		{"infinite high", mutate(func(p *Params) { p.High = math.Inf(1) })},
		{"zero scale", mutate(func(p *Params) { p.Scale = 0 })},
		{"negative scale", mutate(func(p *Params) { p.Scale = -1 })},
		{"pca scorer", mutate(func(p *Params) { p.Scorer = "pca" })},
		{"iforest scorer", mutate(func(p *Params) { p.Scorer = "iforest" })},
		{"unknown scorer", mutate(func(p *Params) { p.Scorer = "magic8ball" })},
		{"no scorer", mutate(func(p *Params) { p.Scorer = "" })},
		{"ngram without table", mutate(func(p *Params) { p.NGram = nil })},
		{"ngram bits mismatch", mutate(func(p *Params) { p.NGram.Bits = 4 })},
		{"ngram ragged arrays", mutate(func(p *Params) { p.NGram.Pos = p.NGram.Pos[:1] })},
		{"ngram slot out of range", mutate(func(p *Params) { p.NGram.Idx[0] = 1 << 30 })},
		{"ngram pos exceeds n", mutate(func(p *Params) { p.NGram.Pos[0] = p.NGram.N[0] + 1 })},
		{"ngram repeated slot", mutate(func(p *Params) { p.NGram.Idx[1] = p.NGram.Idx[0] })},
	}
	for _, tc := range cases {
		if _, err := FromParams(tc.p); err == nil {
			t.Errorf("%s: FromParams accepted corrupt params", tc.name)
		}
	}
	// A gate saved with a scorer this build lacks names it and the remedy.
	_, err := FromParams(mutate(func(p *Params) { p.Scorer = "pca" }))
	if msg := fmt.Sprint(err); !strings.Contains(msg, `"pca"`) || !strings.Contains(msg, "-cascade") {
		t.Errorf("pca gate error %q names neither the scorer nor -cascade", msg)
	}
}

// TestScoreSentence: a rendered feature sentence scores identically to its
// job (integer-valued features round-trip the wire format bit-exactly), and
// unparseable text reports ok=false so the caller routes it to stage 2.
func TestScoreSentence(t *testing.T) {
	jobs, verdicts := calJobs(64, 8)
	g := fitGate(t, Config{}, jobs, verdicts)
	for i, j := range jobs {
		s := logparse.Sentence(j)
		got, ok := g.ScoreSentence(s)
		if !ok {
			t.Fatalf("sentence %d did not parse: %q", i, s)
		}
		if want := g.ScoreJob(j); got != want {
			t.Fatalf("sentence %d scored %v, job scored %v", i, got, want)
		}
	}
	for _, s := range []string{"not a sentence", "The value of x is banana."} {
		if _, ok := g.ScoreSentence(s); ok {
			t.Errorf("ScoreSentence parsed garbage %q", s)
		}
	}
}

// TestHotPathAllocFree: the per-line stage-1 path (score, route, report)
// must not allocate — it runs inside the engine's batch loop and the monitor
// chunk loop for every ingested line.
func TestHotPathAllocFree(t *testing.T) {
	jobs, verdicts := calJobs(256, 16)
	g := fitGate(t, Config{}, jobs, verdicts)
	j := jobs[1]
	s := logparse.Sentence(j)
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		sc := g.ScoreJob(j)
		sink += g.Prob(sc)
		sink += float64(g.Decide(sc))
		sc2, _ := g.ScoreSentence(s)
		sink += sc2
	})
	if allocs != 0 {
		t.Errorf("stage-1 hot path allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}
