package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/flowbench"
)

// TestTrainOutArtifacts: -train-out, the command that writes detector
// artifacts, saves the approach and precision each run asks for, and nothing
// else: no gate without -cascade.
func TestTrainOutArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four detectors")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "anomalyd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building anomalyd: %v\n%s", err, out)
	}
	// The smallest model of each kind keeps the four runs to seconds.
	for _, c := range []struct {
		approach core.Approach
		model    string
		quantize bool
		want     core.Precision
	}{
		{core.SFT, "distilbert-base-uncased", false, core.PrecisionFP32},
		{core.SFT, "distilbert-base-uncased", true, core.PrecisionInt8},
		{core.ICL, "gpt2", false, core.PrecisionFP32},
		{core.ICL, "gpt2", true, core.PrecisionInt8},
	} {
		name := string(c.approach) + "-" + string(c.want)
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".artifact")
			args := []string{"-approach", string(c.approach), "-model", c.model, "-train", "50", "-pretrain", "10", "-epochs", "1", "-train-out", path}
			if c.quantize {
				args = append(args, "-quantize")
			}
			if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("anomalyd %s: %v\n%s", strings.Join(args, " "), err, out)
			}
			det, gate, err := core.LoadDetectorFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := det.Approach(); got != c.approach {
				t.Errorf("artifact approach %s, want %s", got, c.approach)
			}
			if got := det.Precision(); got != c.want {
				t.Errorf("artifact precision %s, want %s", got, c.want)
			}
			if gate != nil {
				t.Error("artifact carries a cascade gate, but -cascade was not given")
			}
		})
	}
}

// TestLoadArtifactRetiredGate: an artifact whose gate names a stage-1 scorer
// this build lacks fails a plain -load with an error naming the scorer, and
// loads under -cascade, which fits a fresh gate — the refit that error names.
func TestLoadArtifactRetiredGate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a detector")
	}
	det, _, err := core.Train(core.Options{
		Approach: core.SFT, Workflow: flowbench.Genome, Model: "distilbert-base-uncased",
		TrainSize: 50, PretrainSteps: 10, Epochs: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := flowbench.Generate(flowbench.Genome, 9)
	labels := make([]int, len(ds.Train))
	for i, j := range ds.Train {
		labels[i] = j.Label
	}
	gate, err := cascade.Fit(cascade.Config{}, ds.Train, labels)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.artifact")
	if err := core.SaveDetectorFile(path, det, gate); err != nil {
		t.Fatal(err)
	}
	retireGate(t, path)

	if _, _, err := loadArtifact(path, false); err == nil || !strings.Contains(err.Error(), `scorer "pca"`) {
		t.Fatalf("plain -load of a pca gate: err %v, want one naming the scorer", err)
	}
	got, g, err := loadArtifact(path, true)
	if err != nil || got == nil || g != nil {
		t.Fatalf("-load with -cascade: detector %v, gate %v, err %v; want the detector, no gate, no error", got, g, err)
	}
	if _, err := core.FitCascade(got, cascade.Config{}, ds.Train); err != nil {
		t.Fatalf("refitting the loaded detector's gate: %v", err)
	}
}

// retireGate rewrites the artifact at path as an older build that still had
// the pca stage-1 scorer would have saved it: the gate names pca, padded so
// the section keeps its length, and the checksum trailer is recomputed.
func retireGate(t *testing.T, path string) {
	t.Helper()
	art, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	from, to := []byte(`"scorer":"ngram"`), []byte(`"scorer":  "pca"`)
	if bytes.Count(art, from) != 1 {
		t.Fatalf("artifact holds %d ngram gates, want 1", bytes.Count(art, from))
	}
	art = bytes.Replace(art, from, to, 1)
	binary.LittleEndian.PutUint32(art[len(art)-4:], crc32.ChecksumIEEE(art[:len(art)-4]))
	if err := os.WriteFile(path, art, 0o644); err != nil {
		t.Fatal(err)
	}
}
