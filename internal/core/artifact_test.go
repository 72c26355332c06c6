package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/sft"
	"repro/internal/tokenizer"
)

// iclOnce shares one small trained ICL detector across artifact tests: it
// exercises the full save path complexity (quantized base weights, LoRA
// structure, few-shot examples + prompt cache).
var (
	iclOnce sync.Once
	iclDet  Detector
)

func iclDetectorForTest(t *testing.T) Detector {
	t.Helper()
	iclOnce.Do(func() {
		det, _, err := Train(Options{
			Approach: ICL, Model: "gpt2",
			TrainSize: 200, PretrainSteps: 100, Shots: 3, LoRASteps: 40, Seed: 9,
		})
		if err != nil {
			panic(err)
		}
		iclDet = det
	})
	return iclDet
}

// fixtureSentences returns a deterministic slab of feature sentences.
func fixtureSentences(ds *flowbench.Dataset, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = logparse.Sentence(ds.Test[i%len(ds.Test)])
	}
	return out
}

// assertDetectorsBitwiseEqual checks that two detectors produce *identical*
// (not merely close) results on sentences, and identical trace verdicts on a
// fixture job log — the artifact round-trip contract.
func assertDetectorsBitwiseEqual(t *testing.T, want, got Detector, ds *flowbench.Dataset) {
	t.Helper()
	sentences := fixtureSentences(ds, 32)
	wr := want.DetectBatch(sentences)
	gr := got.DetectBatch(sentences)
	if len(wr) != len(gr) {
		t.Fatalf("batch sizes differ: %d vs %d", len(wr), len(gr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("sentence %d: loaded detector returned %+v, trained returned %+v (not bitwise identical)", i, gr[i], wr[i])
		}
	}
	if w, g := want.DetectSentence(sentences[0]), got.DetectSentence(sentences[0]); w != g {
		t.Fatalf("DetectSentence differs: %+v vs %+v", g, w)
	}
	jobs := ds.Test[:80]
	wv := DetectTraces(want, jobs, DefaultTracePolicy())
	gv := DetectTraces(got, jobs, DefaultTracePolicy())
	if len(wv) != len(gv) {
		t.Fatalf("verdict counts differ: %d vs %d", len(wv), len(gv))
	}
	for i := range wv {
		if wv[i] != gv[i] {
			t.Fatalf("trace %d: loaded verdict %+v, trained verdict %+v", i, gv[i], wv[i])
		}
	}
}

func TestArtifactRoundTripSFT(t *testing.T) {
	det, ds := detector(t)
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := loadDetector(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Approach() != SFT {
		t.Fatalf("approach = %q", loaded.Approach())
	}
	assertDetectorsBitwiseEqual(t, det, loaded, ds)
}

func TestArtifactRoundTripICL(t *testing.T) {
	det := iclDetectorForTest(t)
	_, ds := detector(t)
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := loadDetector(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Approach() != ICL {
		t.Fatalf("approach = %q", loaded.Approach())
	}
	assertDetectorsBitwiseEqual(t, det, loaded, ds)
}

// TestArtifactSecondGeneration loads an artifact, re-saves the loaded
// detector, and loads again: the format must be stable under save→load→save.
func TestArtifactSecondGeneration(t *testing.T) {
	det, ds := detector(t)
	var gen1 bytes.Buffer
	if err := saveDetector(&gen1, det, nil); err != nil {
		t.Fatal(err)
	}
	loaded1, _, err := loadDetector(bytes.NewReader(gen1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gen2 bytes.Buffer
	if err := saveDetector(&gen2, loaded1, nil); err != nil {
		t.Fatal(err)
	}
	loaded2, _, err := loadDetector(bytes.NewReader(gen2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertDetectorsBitwiseEqual(t, det, loaded2, ds)
}

func TestArtifactFileRoundTrip(t *testing.T) {
	det, ds := detector(t)
	path := filepath.Join(t.TempDir(), "det.artifact")
	if err := SaveDetectorFile(path, det, nil); err != nil {
		t.Fatal(err)
	}
	// Atomic write: no temp litter next to the artifact.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("artifact dir has %d entries, want 1 (temp file leaked?)", len(entries))
	}
	loaded, _, err := LoadDetectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertDetectorsBitwiseEqual(t, det, loaded, ds)
}

func TestArtifactRejectsCorruption(t *testing.T) {
	det, _ := detector(t)
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xFF
			return c
		}, "not a detector artifact"},
		{"future version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99
			return c
		}, "artifact format v99"},
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		}, ""}, // checksum or a section-level validation error; either is loud
		{"truncated", func(b []byte) []byte {
			return b[:len(b)*2/3]
		}, "truncated"},
		{"empty", func(b []byte) []byte { return nil }, "magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := loadDetector(bytes.NewReader(tc.mutate(good)))
			if err == nil {
				t.Fatalf("%s: expected load error", tc.name)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: error = %v, want substring %q", tc.name, err, tc.wantErr)
			}
		})
	}
}

// TestSFTDetectorRejectsTypeHead: the SFT detector's batch path reads two
// logits, so a classifier with the anomaly-type task's three-class head
// panics there rather than answer from the first two, and an artifact that
// carries one fails to load instead of reaching it.
func TestSFTDetectorRejectsTypeHead(t *testing.T) {
	tok := tokenizer.Build([]string{"a"})
	m := models.MustGet("distilbert-base-uncased").BuildClasses(tok.VocabSize(), sft.NumTypeClasses)
	det := NewSFTDetector(sft.NewClassifier(m, tok))
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadDetector(&buf); err == nil || !strings.Contains(err.Error(), "3-class head") {
		t.Fatalf("loading a 3-class SFT artifact: err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-class classifier served a batch")
		}
	}()
	det.DetectBatch([]string{"a"})
}

func TestSaveDetectorRejectsForeignImplementations(t *testing.T) {
	var buf bytes.Buffer
	err := saveDetector(&buf, markDetector{}, nil)
	if err == nil || !strings.Contains(err.Error(), "cannot save") {
		t.Fatalf("err = %v", err)
	}
}

// TestArtifactServesWithZeroTraining is the acceptance path of anomalyd
// -load: a detector loaded from an artifact answers its first HTTP request
// with no training step at boot.
func TestArtifactServesWithZeroTraining(t *testing.T) {
	det, ds := detector(t)
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := loadDetector(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(loaded)
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	body, _ := json.Marshal(DetectRequest{Sentence: logparse.Sentence(ds.Test[0])})
	resp, err := http.Post(srv.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if want := det.DetectSentence(logparse.Sentence(ds.Test[0])); out.Label != want.Label {
		t.Fatalf("served label %d, trained label %d", out.Label, want.Label)
	}
}

// TestSFTArtifactDigest pins every byte of the SFT artifact that
// `anomalyd -workflow predict-future-sales -seed 6 -train 300 -pretrain 80
// -epochs 1 -train-out` writes: MLM pre-training, fine-tuning and the
// serialization, end to end. The digest is asserted on amd64 only, as the
// transformer's golden bits are: elsewhere the compiler may fuse x*y+z into
// one rounding.
func TestSFTArtifactDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the artifact digest is recorded on amd64; the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
	det, _, err := Train(Options{
		Workflow: flowbench.Sales, TrainSize: 300, PretrainSteps: 80, Epochs: 1, Debias: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	const want = "55cdee5d3e0ff0e52d194ab9dd7439495516b183571983185486f243bfeec132"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("SFT artifact SHA-256 %x, want %s", sum, want)
	}
}

// TestCascadeArtifactDigest pins every byte of the cascade artifact that
// `anomalyd -workflow 1000-genome -seed 6 -train 300 -pretrain 80 -epochs 1
// -cascade -train-out` writes: the SFT detector, the ngram gate calibrated
// against its verdicts on the training split, and both serializations, end
// to end. amd64 only, as TestSFTArtifactDigest.
func TestCascadeArtifactDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the artifact digest is recorded on amd64; the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
	det, _, err := Train(Options{
		Workflow: flowbench.Genome, TrainSize: 300, PretrainSteps: 80, Epochs: 1, Debias: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate, err := FitCascade(det, cascade.Config{TargetRecall: cascade.DefaultTargetRecall}, flowbench.Generate(flowbench.Genome, 6).Train)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, gate); err != nil {
		t.Fatal(err)
	}
	const want = "16fa4586813a3f9b1212f988fe75b29103a7d43604af76458d18a3342af26273"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("cascade artifact SHA-256 %x, want %s", sum, want)
	}
}

// TestICLArtifactDigest pins every byte of the ICL artifact that `anomalyd
// -approach icl -model mistral -workflow 1000-genome -seed 3 -train 200
// -pretrain 60 -epochs 1 -train-out` writes: CLM pre-training, LoRA
// fine-tuning, few-shot selection and the prompt cache's serialization, end
// to end. amd64 only, as TestSFTArtifactDigest; it is skipped under -race,
// which slows its training several-fold and moves no bit.
func TestICLArtifactDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the artifact digest is recorded on amd64; the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
	if raceEnabled {
		t.Skip("the race detector slows ICL training several-fold and changes none of its bits")
	}
	det, _, err := Train(Options{
		Approach: ICL, Workflow: flowbench.Genome, Model: "mistral",
		TrainSize: 200, PretrainSteps: 60, Epochs: 1, Debias: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	const want = "5ed3d284348391e16a04c87663a97c927f10e01afe04de447fe81a7bcb32fe0f"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("ICL artifact SHA-256 %x, want %s", sum, want)
	}
}
