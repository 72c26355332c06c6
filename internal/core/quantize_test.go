package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/flowbench"
)

// loadedCopy round-trips det through an artifact so tests can hold two
// independent detectors with identical weights (Clone is unavailable for
// LoRA/quantized models; the artifact layer is the supported path).
func loadedCopy(t *testing.T, det Detector) Detector {
	t.Helper()
	var buf bytes.Buffer
	if err := saveDetector(&buf, det, nil); err != nil {
		t.Fatal(err)
	}
	copyDet, _, err := loadDetector(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return copyDet
}

// quantizedPair returns (fp32, int8) detectors with the same trained weights.
func quantizedPair(t *testing.T, det Detector) (Detector, Detector) {
	t.Helper()
	q, err := QuantizeDetector(loadedCopy(t, det))
	if err != nil {
		t.Fatal(err)
	}
	return det, q
}

// assertQuantizedParity is the detection-accuracy parity pin: int8 and fp32
// must agree on ≥ 99% of fixture-corpus verdicts, anomaly scores must stay
// within scoreTol everywhere, and per-trace verdicts must match.
func assertQuantizedParity(t *testing.T, fp32, int8Det Detector, ds *flowbench.Dataset) {
	t.Helper()
	sentences := fixtureSentences(ds, 200)
	fr := fp32.DetectBatch(sentences)
	qr := int8Det.DetectBatch(sentences)
	agree := 0
	maxScoreDiff := 0.0
	for i := range fr {
		if fr[i].Label == qr[i].Label {
			agree++
		}
		if d := math.Abs(fr[i].Score - qr[i].Score); d > maxScoreDiff {
			maxScoreDiff = d
		}
	}
	if frac := float64(agree) / float64(len(fr)); frac < 0.99 {
		t.Fatalf("int8 verdict agreement %.4f (%d/%d), want ≥ 0.99", frac, agree, len(fr))
	}
	if maxScoreDiff > 0.15 {
		t.Fatalf("int8 max anomaly-score drift %.4f, want ≤ 0.15", maxScoreDiff)
	}
	jobs := ds.Test[:80]
	fv := DetectTraces(fp32, jobs, DefaultTracePolicy())
	qv := DetectTraces(int8Det, jobs, DefaultTracePolicy())
	for i := range fv {
		if fv[i].Flagged != qv[i].Flagged {
			t.Fatalf("trace %d flagged %v under fp32, %v under int8", fv[i].TraceID, fv[i].Flagged, qv[i].Flagged)
		}
	}
}

func TestQuantizedParitySFT(t *testing.T) {
	det, ds := detector(t)
	fp32, q := quantizedPair(t, det)
	if fp32.Precision() != PrecisionFP32 {
		t.Fatalf("trained detector reports %q", fp32.Precision())
	}
	if q.Precision() != PrecisionInt8 {
		t.Fatalf("quantized detector reports %q", q.Precision())
	}
	assertQuantizedParity(t, fp32, q, ds)
}

func TestQuantizedParityICL(t *testing.T) {
	det := iclDetectorForTest(t)
	_, ds := detector(t)
	fp32, q := quantizedPair(t, det)
	if q.Precision() != PrecisionInt8 {
		t.Fatalf("quantized detector reports %q", q.Precision())
	}
	assertQuantizedParity(t, fp32, q, ds)
}

// TestQuantizedArtifactRoundTrip pins the v2 int8 artifact: a quantized
// detector saves, loads bitwise-identically, and the artifact is
// substantially smaller than its fp32 counterpart.
func TestQuantizedArtifactRoundTrip(t *testing.T) {
	det, ds := detector(t)
	var fp32Buf bytes.Buffer
	if err := saveDetector(&fp32Buf, det, nil); err != nil {
		t.Fatal(err)
	}
	_, q := quantizedPair(t, det)
	var qBuf bytes.Buffer
	if err := saveDetector(&qBuf, q, nil); err != nil {
		t.Fatal(err)
	}
	if qBuf.Len() >= fp32Buf.Len() {
		t.Fatalf("int8 artifact %dB not smaller than fp32 %dB", qBuf.Len(), fp32Buf.Len())
	}
	loaded, _, err := loadDetector(bytes.NewReader(qBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Precision() != PrecisionInt8 {
		t.Fatalf("loaded artifact reports %q", loaded.Precision())
	}
	assertDetectorsBitwiseEqual(t, q, loaded, ds)
}

// TestQuantizedArtifactRoundTripICL pins the int8 artifact for the LoRA-tuned
// ICL detector: adapters merge at quantization, so the artifact carries no
// LoRA structure and still restores bitwise-identical detection.
func TestQuantizedArtifactRoundTripICL(t *testing.T) {
	det := iclDetectorForTest(t)
	_, ds := detector(t)
	_, q := quantizedPair(t, det)
	loaded := loadedCopy(t, q)
	if loaded.Precision() != PrecisionInt8 {
		t.Fatalf("loaded artifact reports %q", loaded.Precision())
	}
	assertDetectorsBitwiseEqual(t, q, loaded, ds)
}

// TestQuantizeDetectorRejects pins the error paths: double quantization and
// foreign detector implementations.
func TestQuantizeDetectorRejects(t *testing.T) {
	det, _ := detector(t)
	_, q := quantizedPair(t, det)
	if _, err := QuantizeDetector(q); err == nil {
		t.Fatal("double quantization accepted")
	}
	if _, err := QuantizeDetector(markDetector{}); err == nil || !strings.Contains(err.Error(), "cannot quantize") {
		t.Fatalf("foreign detector: err = %v", err)
	}
}

// writeV1Artifact reproduces the PR 4 (version 1) artifact layout byte for
// byte: no precision section, no quantized-weights section.
func writeV1Artifact(t *testing.T, det Detector) []byte {
	t.Helper()
	d, ok := det.(*localDetector)
	if !ok || d.approach != SFT {
		t.Fatalf("v1 writer test helper supports SFT detectors, got %T", det)
	}
	model, tok := d.model, d.tok
	var out bytes.Buffer
	h := crc32.NewIEEE()
	mw := io.MultiWriter(&out, h)
	for _, v := range []uint32{artifactMagic, 1} {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	cfgJSON, err := json.Marshal(model.Config)
	if err != nil {
		t.Fatal(err)
	}
	var tokBuf, wBuf bytes.Buffer
	if err := tok.Save(&tokBuf); err != nil {
		t.Fatal(err)
	}
	if err := model.Save(&wBuf); err != nil {
		t.Fatal(err)
	}
	metaJSON, _ := json.Marshal(struct{}{})
	for _, sec := range [][]byte{[]byte(SFT), cfgJSON, tokBuf.Bytes(), metaJSON, wBuf.Bytes()} {
		if err := writeSection(mw, sec); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(&out, binary.LittleEndian, h.Sum32()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestArtifactV1BackCompat pins that fp32 artifacts written by the previous
// format version still load, bitwise-identically, and report fp32 precision.
func TestArtifactV1BackCompat(t *testing.T) {
	det, ds := detector(t)
	v1 := writeV1Artifact(t, det)
	loaded, _, err := loadDetector(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 artifact rejected: %v", err)
	}
	if loaded.Precision() != PrecisionFP32 {
		t.Fatalf("v1 artifact reports %q", loaded.Precision())
	}
	assertDetectorsBitwiseEqual(t, det, loaded, ds)
}

// TestRegistryServesMixedPrecision pins the serving story: fp32 and int8
// variants of the same model registered side by side, routed by name, with
// precision surfaced in the registry snapshot.
func TestRegistryServesMixedPrecision(t *testing.T) {
	det, ds := detector(t)
	fp32, q := quantizedPair(t, det)
	reg := NewRegistry()
	cfg := BatchConfig{MaxBatch: 8, Workers: 1}
	if err := reg.Add("genome", fp32, cfg); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("genome-int8", q, cfg); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	byName := map[string]Precision{}
	for _, info := range reg.Info() {
		byName[info.Name] = info.Precision
	}
	if byName["genome"] != PrecisionFP32 || byName["genome-int8"] != PrecisionInt8 {
		t.Fatalf("registry precisions = %v", byName)
	}

	sentences := fixtureSentences(ds, 16)
	detect := func(model string) []Result {
		e, err := reg.lookup(model)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := e.DetectContext(context.Background(), sentences)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fpRes, qRes := detect("genome"), detect("genome-int8")
	agree := 0
	for i := range fpRes {
		if fpRes[i].Label == qRes[i].Label {
			agree++
		}
	}
	if agree < len(fpRes)-1 {
		t.Fatalf("served precisions agree on %d/%d sentences", agree, len(fpRes))
	}
}
