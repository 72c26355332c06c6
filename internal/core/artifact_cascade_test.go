package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestArtifactCascadeRoundTrip: a gate saved with its detector comes back
// parameter-identical, scoring and routing bit-exactly, while the detector
// itself stays bitwise equal.
func TestArtifactCascadeRoundTrip(t *testing.T) {
	det, ds := detector(t)
	jobs, verdicts := cascadeTestJobs(128, 8)
	gate := testCascadeGate(t, jobs, verdicts)

	var buf bytes.Buffer
	if err := saveDetector(&buf, det, gate); err != nil {
		t.Fatal(err)
	}
	loaded, got, err := loadDetector(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("gate lost in round-trip")
	}
	if !reflect.DeepEqual(got.Params(), gate.Params()) {
		t.Fatal("gate params changed across artifact round-trip")
	}
	for i, j := range jobs {
		ws, gs := gate.ScoreJob(j), got.ScoreJob(j)
		if ws != gs || gate.Decide(ws) != got.Decide(gs) {
			t.Fatalf("job %d scores/routes differently after round-trip (%v vs %v)", i, ws, gs)
		}
	}
	assertDetectorsBitwiseEqual(t, det, loaded, ds)
}

// TestArtifactNoGateRoundTrip: saveDetector with a nil gate writes a v3
// artifact with an empty cascade section, and loading reports no gate rather
// than inventing one.
func TestArtifactNoGateRoundTrip(t *testing.T) {
	det, _ := detector(t)
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	_, gate, err := loadDetector(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gate != nil {
		t.Fatalf("gate-free artifact loaded a gate: %+v", gate.Params())
	}
}

// TestArtifactFileCascadeRoundTrip exercises the atomic file path with an
// embedded gate — the anomalyd -train-out -cascade → -load handoff.
func TestArtifactFileCascadeRoundTrip(t *testing.T) {
	det, ds := detector(t)
	jobs, verdicts := cascadeTestJobs(64, 8)
	gate := testCascadeGate(t, jobs, verdicts)

	path := t.TempDir() + "/det.wfda"
	if err := SaveDetectorFile(path, det, gate); err != nil {
		t.Fatal(err)
	}
	loaded, got, err := LoadDetectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !reflect.DeepEqual(got.Params(), gate.Params()) {
		t.Fatal("gate did not survive the file round-trip")
	}
	assertDetectorsBitwiseEqual(t, det, loaded, ds)
}

// reencodeArtifact rewrites a v3 fp32 artifact at an older format version:
// v2 drops the cascade section, v1 additionally drops the precision section,
// and the checksum trailer is recomputed. mutateGate, when non-nil, replaces
// the cascade section payload (version 3 only) — for corrupt-gate tests that
// must get past the CRC.
func reencodeArtifact(t *testing.T, art []byte, version uint32, mutateGate func([]byte) []byte) []byte {
	t.Helper()
	r := bytes.NewReader(art)
	var magic, ver uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		t.Fatal(err)
	}
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		t.Fatal(err)
	}
	if ver != artifactVersion {
		t.Fatalf("fixture artifact is v%d, want v%d", ver, artifactVersion)
	}
	readSec := func() []byte {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	approach := readSec()
	precision := readSec()
	if string(precision) != string(PrecisionFP32) {
		t.Fatalf("reencodeArtifact only handles fp32 fixtures, got %q", precision)
	}
	body := [][]byte{readSec(), readSec(), readSec()} // config, tokenizer, meta
	weights := readSec()
	gate := readSec()
	if mutateGate != nil {
		gate = mutateGate(gate)
	}

	var out bytes.Buffer
	h := crc32.NewIEEE()
	mw := io.MultiWriter(&out, h)
	for _, v := range []uint32{magic, version} {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	write := func(sec []byte) {
		if err := writeSection(mw, sec); err != nil {
			t.Fatal(err)
		}
	}
	write(approach)
	if version >= 2 {
		write(precision)
	}
	for _, sec := range body {
		write(sec)
	}
	write(weights)
	if version >= 3 {
		write(gate)
	}
	if err := binary.Write(&out, binary.LittleEndian, h.Sum32()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestArtifactBackCompat: v1 (fp32-only) and v2 (no cascade section)
// artifacts still load on this build, detector intact and gate absent.
func TestArtifactBackCompat(t *testing.T) {
	det, ds := detector(t)
	jobs, verdicts := cascadeTestJobs(64, 8)
	gate := testCascadeGate(t, jobs, verdicts)
	var buf bytes.Buffer
	// Save WITH a gate: the downgrade drops the section, proving old layouts
	// are read by structure, not by luck of an empty trailer.
	if err := saveDetector(&buf, det, gate); err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint32{1, 2} {
		old := reencodeArtifact(t, buf.Bytes(), version, nil)
		loaded, g, err := loadDetector(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("v%d artifact failed to load: %v", version, err)
		}
		if g != nil {
			t.Fatalf("v%d artifact produced a gate", version)
		}
		assertDetectorsBitwiseEqual(t, det, loaded, ds)
	}
}

// TestArtifactCorruptGateFailsLoad: a present-but-invalid gate section must
// fail the load loudly, not serve the detector with a broken stage 1 — and so
// must a gate fitted with a stage-1 scorer this build no longer has, whose
// error names the scorer and how to write a new gate. The detector sections
// are intact, yet no detector comes back: nothing serves without the gate its
// artifact carries.
func TestArtifactCorruptGateFailsLoad(t *testing.T) {
	det, _ := detector(t)
	jobs, verdicts := cascadeTestJobs(64, 8)
	gate := testCascadeGate(t, jobs, verdicts)
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, gate); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"truncated JSON", func([]byte) []byte { return []byte("{") }, "decoding cascade gate"},
		{"invalid params", func([]byte) []byte {
			return []byte(`{"scorer":"ngram","low":0,"high":0,"scale":0,"target_recall":0.995}`)
		}, "rebuilding cascade gate"},
		{"pca gate", func(sec []byte) []byte {
			return bytes.Replace(sec, []byte(`"scorer":"ngram"`), []byte(`"scorer":"pca"`), 1)
		}, `scorer "pca", but this build has only "ngram"; write a new artifact with anomalyd -train-out <path> -cascade`},
	}
	for _, tc := range cases {
		bad := reencodeArtifact(t, buf.Bytes(), artifactVersion, tc.mut)
		loaded, g, err := loadDetector(bytes.NewReader(bad))
		if err == nil {
			t.Errorf("%s: corrupt gate loaded silently", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the gate (want %q)", tc.name, err, tc.want)
		}
		if g != nil || loaded != nil {
			t.Errorf("%s: got gate %v, detector %v; want neither", tc.name, g, loaded)
		}
	}
}
