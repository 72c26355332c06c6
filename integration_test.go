package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/sft"
	"repro/internal/tokenizer"
)

// Integration tests exercising cross-module flows end to end.

// TestDatasetExportImportRoundTrip covers the cmd/flowgen data path: a full
// split serialized to CSV and raw logs parses back losslessly (metadata and
// labels exactly; feature values at serialization precision).
func TestDatasetExportImportRoundTrip(t *testing.T) {
	ds := flowbench.Generate(flowbench.Genome, 3).Subsample(200, 1, 1, 4)
	var csv bytes.Buffer
	csv.WriteString(logparse.CSVHeader())
	csv.WriteByte('\n')
	for _, j := range ds.Train {
		csv.WriteString(logparse.CSVRow(j))
		csv.WriteByte('\n')
	}
	jobs, err := logparse.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(ds.Train) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(jobs), len(ds.Train))
	}
	anomIn, anomOut := 0, 0
	for i := range jobs {
		anomIn += ds.Train[i].Label
		anomOut += jobs[i].Label
		line := logparse.LogLine(ds.Train[i])
		back, err := logparse.ParseLogLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if back.Label != ds.Train[i].Label || back.Anomaly != ds.Train[i].Anomaly {
			t.Fatal("log line round trip mismatch")
		}
	}
	if anomIn != anomOut {
		t.Fatal("anomaly counts changed across CSV round trip")
	}
}

// TestCheckpointAcrossProcessBoundary fine-tunes a model, saves it to disk,
// loads it into a freshly built model of the same architecture, and checks
// predictions survive — the cmd/sfttrain -save path.
func TestCheckpointAcrossProcessBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds := flowbench.Generate(flowbench.Genome, 5).Subsample(200, 1, 50, 6)
	corpus := pretrain.BuildCorpus(pretrain.CorpusOptions{SentencesPerWorkflow: 40, ICLDocs: 10, ExamplesPerDoc: 3, Seed: 7})
	corpus = append(corpus, logparse.Corpus(ds.Train)...)
	tok := tokenizer.Build(corpus)
	m := models.MustGet("distilbert-base-uncased").Build(tok.VocabSize())
	clf := sft.NewClassifier(m, tok)
	cfg := sft.DefaultTrainConfig()
	cfg.Epochs = 1
	sft.Train(clf, sft.JobExamples(ds.Train), nil, cfg)

	path := filepath.Join(t.TempDir(), "ckpt.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A new "process": fresh model from the same registry spec + vocab.
	m2 := models.MustGet("distilbert-base-uncased").Build(tok.VocabSize())
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Load(rf); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	clf2 := sft.NewClassifier(m2, tok)
	for _, j := range ds.Test[:20] {
		p1, _ := clf.PredictJob(j)
		p2, _ := clf2.PredictJob(j)
		if p1 != p2 {
			t.Fatal("loaded checkpoint predicts differently")
		}
	}
}

// TestPipelineDetectorAgreement checks that the core facade and the direct
// sft path classify identically given identical training.
func TestPipelineDetectorAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det, _, err := core.Train(core.Options{
		Approach: core.SFT, Model: "distilbert-base-uncased",
		TrainSize: 200, PretrainSteps: 60, Epochs: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := flowbench.Generate(flowbench.Genome, 11).Subsample(10, 10, 50, 12)
	// The detector must be deterministic across repeated calls.
	for _, j := range ds.Test[:10] {
		a := det.DetectJob(j)
		b := det.DetectJob(j)
		if a != b {
			t.Fatal("detector not deterministic")
		}
	}
}

// TestCommandsBuild verifies every cmd binary compiles (go build ./... runs
// in CI, but this keeps the guarantee inside the test suite).
func TestCommandsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "build", "./cmd/...", "./examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
}

// docSpan is one piece of a run document a reader would type: a backticked
// span of prose, or a whole line of a fenced block or workflow step.
type docSpan struct {
	path  string
	n     int // index of the span's line
	code  string
	prose bool // a backticked span, not a command line
}

func (s docSpan) String() string { return s.path + ":" + strconv.Itoa(s.n+1) }

// eachDocSpan visits the documents that tell a reader what to run. CHANGES.md
// and ROADMAP.md are history and exempt.
func eachDocSpan(t *testing.T, visit func(docSpan)) {
	t.Helper()
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		workflow := strings.HasSuffix(path, ".yml")
		fenced := false
		for n, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "```") {
				fenced = !fenced
				continue
			}
			if prose := !fenced && (!workflow || strings.HasPrefix(trimmed, "#")); !prose {
				visit(docSpan{path, n, line, false})
				continue
			}
			for i, span := range strings.Split(line, "`") {
				if i%2 == 1 {
					visit(docSpan{path, n, span, true})
				}
			}
		}
	}
}

// TestDocsNameOnlyExistingMakeTargets fails on a `make <target>` — in
// backticks, in a fenced block, or on a workflow step line — that the
// Makefile's .PHONY list does not declare.
func TestDocsNameOnlyExistingMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(makefile), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, name := range strings.Fields(rest) {
				targets[name] = true
			}
		}
	}
	if len(targets) == 0 {
		t.Fatal("Makefile declares no .PHONY targets")
	}
	invocation := regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
	eachDocSpan(t, func(s docSpan) {
		for _, m := range invocation.FindAllStringSubmatch(s.code, -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not declare", s, m[1])
			}
		}
	})
}

// TestDocsNameOnlyExistingFlags fails on a flag the documents hand to one of
// the repo's binaries that the binary's main.go does not declare: on a command
// line (fenced, workflow step, or backticked) every -flag after the binary's
// name, up to the next pipe or && and across backslash continuations. A
// backticked `-flag` standing alone in prose cannot be attributed to one
// binary reliably, so it only has to be declared by some binary — which is
// what catches a deleted flag — or be one of the go test / bench/run.sh flags
// the prose discusses.
func TestDocsNameOnlyExistingFlags(t *testing.T) {
	declaration := regexp.MustCompile(`\b(?:flag|fs)\.(?:String|Int|Uint64|Bool|Duration|Float64|Var)\(\s*"([^"]+)"`)
	declared := map[string]map[string]bool{}
	anywhere := map[string]bool{"cpu": true, "benchtime": true, "race": true, "update": true, "seconds": true, "trace": true}
	for _, bin := range []string{"anomalyd", "anomalygw", "loadlab", "expbench", "flowgen", "sfttrain", "iclrun"} {
		src, err := os.ReadFile(filepath.Join("cmd", bin, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		declared[bin] = map[string]bool{}
		for _, m := range declaration.FindAllSubmatch(src, -1) {
			declared[bin][string(m[1])] = true
			anywhere[string(m[1])] = true
		}
		if len(declared[bin]) == 0 {
			t.Fatalf("found no flag declarations in cmd/%s/main.go", bin)
		}
	}
	flagWord := regexp.MustCompile("^--?([a-z][a-z0-9-]*)")

	// A command line ending in a backslash continues on the next line of the
	// same file, still addressed to contBin.
	var contPath, contBin string
	var contLine int
	eachDocSpan(t, func(s docSpan) {
		if m := flagWord.FindStringSubmatch(s.code); m != nil && s.prose {
			if !anywhere[m[1]] {
				t.Errorf("%s names `-%s`, which no binary declares", s, m[1])
			}
			return
		}
		bin := ""
		if s.path == contPath && s.n == contLine {
			bin = contBin
		}
		for _, tok := range strings.Fields(s.code) {
			// anomalyd, ./cmd/anomalyd and /tmp/anomalyd all run anomalyd.
			base := tok[strings.LastIndexByte(tok, '/')+1:]
			switch {
			case tok == "|" || tok == "&&" || tok == "||" || tok == ";":
				bin = ""
			case declared[base] != nil:
				bin = base
			case bin != "":
				if m := flagWord.FindStringSubmatch(tok); m != nil && !declared[bin][m[1]] {
					t.Errorf("%s passes -%s to %s, which cmd/%s/main.go does not declare", s, m[1], bin, bin)
				}
			}
		}
		contPath = ""
		if !s.prose && strings.HasSuffix(strings.TrimSpace(s.code), "\\") {
			contPath, contLine, contBin = s.path, s.n+1, bin
		}
	})
}

// TestDocsNameOnlyExistingTests fails on a backticked `Test…`, `Benchmark…`
// or `Fuzz…` name that no _test.go in the repository declares; a trailing `*`
// makes the name a prefix. docs/PERFORMANCE.md is measurement history, like
// CHANGES.md, and exempt: it names the benchmarks that produced old numbers.
func TestDocsNameOnlyExistingTests(t *testing.T) {
	declaration := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	var declared []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and the benchmark's build cache
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range declaration.FindAllSubmatch(src, -1) {
			declared = append(declared, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no test declarations")
	}
	mention := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*\*?`)
	eachDocSpan(t, func(s docSpan) {
		if !s.prose || s.path == filepath.Join("docs", "PERFORMANCE.md") {
			return
		}
		for _, name := range mention.FindAllString(s.code, -1) {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			if !slices.ContainsFunc(declared, func(d string) bool {
				return d == prefix || isPrefix && strings.HasPrefix(d, prefix)
			}) {
				t.Errorf("%s names `%s`, which no _test.go declares", s, name)
			}
		}
	})
}
