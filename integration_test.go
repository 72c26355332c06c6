package repro

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
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
// predictions survive — the weights section of every fp32 detector artifact
// (anomalyd -train-out).
func TestCheckpointAcrossProcessBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds := flowbench.Generate(flowbench.Genome, 5).Subsample(200, 1, 50, 6)
	_, tok := pretrain.Vocabulary(pretrain.CorpusOptions{SentencesPerWorkflow: 40, ICLDocs: 10, ExamplesPerDoc: 3, Seed: 7}, ds.Train)
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
	sentences := make([]string, 20)
	for i, j := range ds.Test[:20] {
		sentences[i] = logparse.Sentence(j)
	}
	p1, _ := clf.PredictBatchWS(sentences, nil)
	p2, _ := clf2.PredictBatchWS(sentences, nil)
	if !slices.Equal(p1, p2) {
		t.Fatal("loaded checkpoint predicts differently")
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
		a := det.DetectSentence(logparse.Sentence(j))
		b := det.DetectSentence(logparse.Sentence(j))
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
//
// It also fails on a bare word after a bool flag — on a command line, a bool
// flag of that binary; in a standalone prose span, a flag every binary that
// declares it declares bool. Flag parsing stops at that word, so every flag
// after it would be dropped. docs/PERFORMANCE.md is measurement history and
// keeps the command lines it was measured with.
func TestDocsNameOnlyExistingFlags(t *testing.T) {
	declaration := regexp.MustCompile(`\b(?:flag|fs)\.(String|Int|Uint64|Bool|Duration|Float64|Var)\(\s*"([^"]+)"`)
	declared := map[string]map[string]bool{}
	isBool := map[string]map[string]bool{}
	anywhere := map[string]bool{"cpu": true, "benchtime": true, "race": true, "update": true, "seconds": true, "trace": true}
	boolAnywhere, nonBool := map[string]bool{}, map[string]bool{}
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("found no cmd/*/main.go: %v", err)
	}
	for _, path := range mains {
		bin := filepath.Base(filepath.Dir(path))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		declared[bin], isBool[bin] = map[string]bool{}, map[string]bool{}
		for _, m := range declaration.FindAllSubmatch(src, -1) {
			name := string(m[2])
			declared[bin][name] = true
			anywhere[name] = true
			if string(m[1]) == "Bool" {
				isBool[bin][name], boolAnywhere[name] = true, true
			} else {
				nonBool[name] = true
			}
		}
		if len(declared[bin]) == 0 {
			t.Fatalf("found no flag declarations in cmd/%s/main.go", bin)
		}
	}
	for name := range nonBool {
		delete(boolAnywhere, name)
	}
	flagWord := regexp.MustCompile("^--?([a-z][a-z0-9-]*)")
	bareWord := regexp.MustCompile(`^[\w./"'$][^<>]*$`)
	history := filepath.Join("docs", "PERFORMANCE.md")
	// strayValue reports whether tok is a bare word following prev, a bool
	// flag given without =value.
	strayValue := func(bools map[string]bool, s docSpan, prev, tok string) bool {
		m := flagWord.FindStringSubmatch(prev)
		return s.path != history && m != nil && bools[m[1]] && !strings.Contains(prev, "=") && bareWord.MatchString(tok)
	}

	// A command line ending in a backslash continues on the next line of the
	// same file, still addressed to contBin.
	var contPath, contBin string
	var contLine int
	eachDocSpan(t, func(s docSpan) {
		if m := flagWord.FindStringSubmatch(s.code); m != nil && s.prose {
			if !anywhere[m[1]] {
				t.Errorf("%s names `-%s`, which no binary declares", s, m[1])
			}
			words := strings.Fields(s.code)
			for i := 1; i < len(words); i++ {
				if strayValue(boolAnywhere, s, words[i-1], words[i]) {
					t.Errorf("%s gives bool flag %s the value %q", s, words[i-1], words[i])
				}
			}
			return
		}
		bin := ""
		if s.path == contPath && s.n == contLine {
			bin = contBin
		}
		prev := ""
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
				if strayValue(isBool[bin], s, prev, tok) {
					t.Errorf("%s gives %s's bool flag %s the value %q", s, bin, prev, tok)
				}
			}
			prev = tok
		}
		contPath = ""
		if !s.prose && strings.HasSuffix(strings.TrimSpace(s.code), "\\") {
			contPath, contLine, contBin = s.path, s.n+1, bin
		}
	})
}

// TestDocsNameOnlyExistingIdentifiers fails on a backticked Go identifier in
// README.md or docs/*.md that no .go file of the repository declares: a
// `pkg.Name` whose package is one of the repo's must name something that
// package declares, and a bare `Name` (starting uppercase, with a lowercase
// letter) something some package declares. A `Type.Member` or
// `pkg.Type.Member` must name a type (of that package, when qualified) that
// declares the member as a method or field, itself or through a type it
// embeds. A trailing `(…)` is ignored. Any other qualifier — a
// standard-library package (`sync.Pool`) or a variable (`r.Context()`) — is
// not the repo's to check. docs/PERFORMANCE.md is measurement history, like
// CHANGES.md, and exempt.
func TestDocsNameOnlyExistingIdentifiers(t *testing.T) {
	type typeRef struct{ pkg, name string }
	declared := map[string]map[string]bool{} // package name -> declared names
	anywhere := map[string]bool{}
	members := map[typeRef]map[string]bool{} // methods and fields
	embeds := map[typeRef][]typeRef{}
	// typeOf resolves a receiver or embedded-field type expression to the
	// type it names; pkg is the package the expression appears in.
	typeOf := func(pkg string, e ast.Expr) (typeRef, bool) {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.Ident:
				return typeRef{pkg, x.Name}, true
			case *ast.SelectorExpr:
				if q, ok := x.X.(*ast.Ident); ok {
					return typeRef{q.Name, x.Sel.Name}, true
				}
				return typeRef{}, false
			default:
				return typeRef{}, false
			}
		}
	}
	member := func(ref typeRef, name string) {
		if members[ref] == nil {
			members[ref] = map[string]bool{}
		}
		members[ref][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		names := declared[pkg]
		if names == nil {
			names = map[string]bool{}
			declared[pkg] = names
		}
		declare := func(ids ...*ast.Ident) {
			for _, id := range ids {
				names[id.Name], anywhere[id.Name] = true, true
			}
		}
		// fields records a struct's fields or an interface's methods as
		// members of owner, and its embedded types as embeds.
		fields := func(owner typeRef, list *ast.FieldList) {
			for _, field := range list.List {
				for _, id := range field.Names {
					member(owner, id.Name)
				}
				if len(field.Names) == 0 {
					if ref, ok := typeOf(pkg, field.Type); ok {
						embeds[owner] = append(embeds[owner], ref)
						member(owner, ref.name) // an embedded field is named by its type
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declare(n.Name)
				if n.Recv != nil && len(n.Recv.List) == 1 {
					if ref, ok := typeOf(pkg, n.Recv.List[0].Type); ok {
						member(ref, n.Name.Name)
					}
				}
			case *ast.TypeSpec:
				declare(n.Name)
				owner := typeRef{pkg, n.Name.Name}
				switch tt := n.Type.(type) {
				case *ast.StructType:
					fields(owner, tt.Fields)
				case *ast.InterfaceType:
					fields(owner, tt.Methods)
				}
			case *ast.ValueSpec:
				declare(n.Names...)
			case *ast.StructType:
				for _, field := range n.Fields.List {
					declare(field.Names...)
				}
			case *ast.InterfaceType:
				for _, field := range n.Methods.List {
					declare(field.Names...)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// has reports whether ref declares name, itself or through an embed.
	var has func(ref typeRef, name string, seen map[typeRef]bool) bool
	has = func(ref typeRef, name string, seen map[typeRef]bool) bool {
		if seen[ref] {
			return false
		}
		seen[ref] = true
		if members[ref][name] {
			return true
		}
		for _, e := range embeds[ref] {
			if has(e, name, seen) {
				return true
			}
		}
		return false
	}
	ident := regexp.MustCompile(`^\*?(?:([a-z][a-z0-9]*)\.)?([A-Z]\w*)(?:\.([A-Z]\w*))?(?:\(.*\))?$`)
	lower := regexp.MustCompile(`[a-z]`)
	eachDocSpan(t, func(s docSpan) {
		if !s.prose || s.path == filepath.Join("docs", "PERFORMANCE.md") ||
			s.path != "README.md" && filepath.Dir(s.path) != "docs" {
			return
		}
		m := ident.FindStringSubmatch(s.code)
		if m == nil {
			return
		}
		qual, name, sel := m[1], m[2], m[3]
		if qual != "" && declared[qual] == nil {
			return
		}
		if sel != "" {
			for pkg := range declared {
				if (qual == "" || pkg == qual) && declared[pkg][name] && has(typeRef{pkg, name}, sel, map[typeRef]bool{}) {
					return
				}
			}
			t.Errorf("%s names `%s`, but no type %s declares or embeds a method or field %s", s, s.code, name, sel)
			return
		}
		scope := anywhere
		switch {
		case qual != "":
			scope = declared[qual]
		case !lower.MatchString(name):
			return // an acronym or constant-style word (`ICL`, `GOMAXPROCS`)
		}
		if !scope[name] {
			t.Errorf("%s names `%s`, but no .go file declares %s", s, s.code, name)
		}
	})
}

// TestDocsNameOnlyExistingFiles fails on a Markdown file named in a .go
// comment, in README.md or in docs/*.md that git does not track. A name with a
// directory must be a tracked path; a bare name must be the base name of one.
func TestDocsNameOnlyExistingFiles(t *testing.T) {
	out, err := exec.Command("git", "ls-files").Output()
	if err != nil {
		t.Skipf("no git checkout to list tracked files from: %v", err)
	}
	tracked := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		tracked[p], tracked[filepath.Base(p)] = true, true
	}
	cited := regexp.MustCompile(`[\w./-]*\w\.md\b`)
	check := func(where, text string) {
		for _, name := range cited.FindAllString(text, -1) {
			if !tracked[strings.TrimPrefix(name, "./")] {
				t.Errorf("%s names %s, which is not a tracked file", where, name)
			}
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				check(fset.Position(c.Pos()).String(), c.Text)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(docs, "README.md") {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			check(path+":"+strconv.Itoa(n+1), line)
		}
	}
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
