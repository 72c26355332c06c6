package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// buildAnomalyd builds the command into dir and returns the binary's path.
func buildAnomalyd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "anomalyd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building anomalyd: %v\n%s", err, out)
	}
	return bin
}

// TestTrainOutArtifacts: -train-out, the command that writes detector
// artifacts, saves the approach and precision each run asks for, and nothing
// else: no gate without -cascade.
func TestTrainOutArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four detectors")
	}
	dir := t.TempDir()
	bin := buildAnomalyd(t, dir)
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

// TestServeRefusals: anomalyd trains only under -train-out and serves only
// -load artifacts, arming the gate each carries and fitting none. Every
// invocation that would train or fit at boot must exit non-zero before it
// listens, with a message naming the fix. The deadline turns a daemon that
// trains or serves instead into a failure, not a hang.
func TestServeRefusals(t *testing.T) {
	dir := t.TempDir()
	bin := buildAnomalyd(t, dir)
	cases := []struct {
		name    string
		args    []string
		want    string
		trained bool // needs a gate-less artifact at plain.artifact
	}{
		{"no mode", nil, "give exactly one mode", false},
		{"both modes", []string{"-train-out", filepath.Join(dir, "new.artifact"), "-load", filepath.Join(dir, "plain.artifact")}, "give exactly one mode", false},
		{"load with cascade", []string{"-load", filepath.Join(dir, "plain.artifact"), "-cascade"}, "write it with -train-out <path> -cascade", false},
		{"brownout without gate", []string{"-load", filepath.Join(dir, "plain.artifact"), "-brownout", "8"}, filepath.Join(dir, "plain.artifact") + " carries none; write a gated artifact with anomalyd -train-out <path> -cascade", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.trained {
				if testing.Short() {
					t.Skip("trains a detector")
				}
				args := []string{"-model", "distilbert-base-uncased", "-train", "50", "-pretrain", "10", "-epochs", "1", "-train-out", filepath.Join(dir, "plain.artifact")}
				if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
					t.Fatalf("anomalyd %s: %v\n%s", strings.Join(args, " "), err, out)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0"}, c.args...)
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("anomalyd %s still running after 30s, want a refusal:\n%s", strings.Join(args, " "), out)
			}
			if err == nil {
				t.Errorf("anomalyd %s exited 0, want a refusal", strings.Join(args, " "))
			}
			if strings.Contains(string(out), "listening on") {
				t.Errorf("anomalyd %s listened before refusing:\n%s", strings.Join(args, " "), out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("anomalyd %s said\n%s\nwant a message containing %q", strings.Join(args, " "), out, c.want)
			}
		})
	}
}
