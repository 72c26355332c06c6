package scenario

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/flowbench"
)

var updateGolden = flag.Bool("update", false, "rewrite golden scenario hashes")

// goldenCfg is the pinned configuration: changing it (or any generator code
// path) invalidates the recorded hashes, which is the point — determinism
// regressions fail loudly instead of silently shifting benchmark traffic.
func goldenCfg() Config {
	return Config{Workflow: flowbench.Genome, Events: 500, Seed: 42, Rate: 400}
}

const goldenPath = "testdata/golden.txt"

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden file (run `go test ./internal/scenario -run Golden -update` to create): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		out[fields[0]] = fields[1]
	}
	return out
}

func writeGolden(t *testing.T, hashes map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("# SHA-256 of each scenario stream at Genome/500 events/seed 42/rate 400.\n")
	buf.WriteString("# Regenerate with: go test ./internal/scenario -run Golden -update\n")
	for _, d := range All() {
		fmt.Fprintf(&buf, "%s %s\n", d.Name, hashes[d.Name])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// streamHash returns a SHA-256 digest of s's canonical serialization
// (arrival offset, line, label per event) — the quantity the golden-file
// determinism tests pin.
func streamHash(s *Stream) string {
	h := sha256.New()
	for _, ev := range s.Events {
		h.Write([]byte(strconv.FormatInt(int64(ev.At), 10)))
		h.Write([]byte{'\t'})
		h.Write([]byte(ev.Line))
		h.Write([]byte{'\t'})
		h.Write([]byte(strconv.Itoa(ev.Job.Label)))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenHashes pins generation: identical seed must produce byte-identical
// traffic and labels across runs, platforms, and commits.
func TestGoldenHashes(t *testing.T) {
	got := map[string]string{}
	for _, d := range All() {
		got[d.Name] = streamHash(d.Generate(goldenCfg()))
	}
	if *updateGolden {
		writeGolden(t, got)
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want := readGolden(t)
	for _, d := range All() {
		if want[d.Name] == "" {
			t.Errorf("%s: no golden hash recorded (rerun with -update)", d.Name)
			continue
		}
		if got[d.Name] != want[d.Name] {
			t.Errorf("%s: hash %s != golden %s — generation is no longer deterministic or the generator changed (rerun with -update if intentional)",
				d.Name, got[d.Name], want[d.Name])
		}
	}
}

// TestGenerationIndependentOfGOMAXPROCS re-generates every scenario under a
// different parallelism setting and demands identical hashes: no scheduling
// or map-iteration nondeterminism may reach the stream.
func TestGenerationIndependentOfGOMAXPROCS(t *testing.T) {
	base := map[string]string{}
	for _, d := range All() {
		base[d.Name] = streamHash(d.Generate(goldenCfg()))
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, d := range All() {
		if h := streamHash(d.Generate(goldenCfg())); h != base[d.Name] {
			t.Errorf("%s: hash changed under GOMAXPROCS=1", d.Name)
		}
	}
}

// TestRepeatedGenerationIsIdentical checks run-to-run determinism including
// the full event contents, not just the hash.
func TestRepeatedGenerationIsIdentical(t *testing.T) {
	for _, d := range All() {
		a := d.Generate(goldenCfg())
		b := d.Generate(goldenCfg())
		if len(a.Events) != len(b.Events) {
			t.Fatalf("%s: event counts differ", d.Name)
		}
		for i := range a.Events {
			if a.Events[i].At != b.Events[i].At || a.Events[i].Line != b.Events[i].Line {
				t.Fatalf("%s: event %d differs between runs", d.Name, i)
			}
		}
	}
}

// TestSeedsDisjoint makes sure different seeds and different scenarios do not
// accidentally share traffic.
func TestSeedsDisjoint(t *testing.T) {
	d, _ := Lookup("steady")
	cfg := goldenCfg()
	h1 := streamHash(d.Generate(cfg))
	cfg.Seed = 43
	if streamHash(d.Generate(cfg)) == h1 {
		t.Error("different seeds produced identical streams")
	}
	other, _ := Lookup("bursty")
	cfg.Seed = 42
	if streamHash(other.Generate(cfg)) == h1 {
		t.Error("different scenarios produced identical streams")
	}
}
