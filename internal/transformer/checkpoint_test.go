package transformer

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestCloneProducesIdenticalOutputs(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(31))
	c := m.Clone()
	ids := [][]int{{1, 2, 3, 4}}
	if !m.ForwardClsBatchWS(ids, nil).Equal(c.ForwardClsBatchWS(ids, nil)) {
		t.Fatal("clone output differs")
	}
	// Mutating the clone must not affect the original.
	c.ClsHead.Weight.W.Data[0] += 1
	if m.ForwardClsBatchWS(ids, nil).Equal(c.ForwardClsBatchWS(ids, nil)) {
		t.Fatal("clone shares storage with original")
	}
}

func TestClonePreservesFrozenFlags(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(32))
	m.FreezeBackbone()
	c := m.Clone()
	if !c.TokEmb.Table.Frozen {
		t.Fatal("clone dropped frozen flag")
	}
	if c.ClsHead.Weight.Frozen {
		t.Fatal("clone froze unfrozen param")
	}
}

func TestCloneSharedLayers(t *testing.T) {
	cfg := smallConfig(false)
	cfg.ShareLayers = true
	cfg.NumLayers = 3
	m := New(cfg, tensor.NewRNG(33))
	c := m.Clone()
	ids := [][]int{{1, 2, 3}}
	if !m.ForwardClsBatchWS(ids, nil).Equal(c.ForwardClsBatchWS(ids, nil)) {
		t.Fatal("shared-layer clone output differs")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := New(smallConfig(true), tensor.NewRNG(34))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(smallConfig(true), tensor.NewRNG(99)) // different init
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	ids := [][]int{{2, 4, 6}}
	if !m.forwardLMTape(ids, nil).Equal(m2.forwardLMTape(ids, nil)) {
		t.Fatal("loaded model differs from saved model")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(35))
	if err := m.Load(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestLoadRejectsArchitectureMismatch(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(36))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := smallConfig(false)
	other.DModel = 16 // divisible by heads, different shape
	m2 := New(other, tensor.NewRNG(37))
	if err := m2.Load(&buf); err == nil {
		t.Fatal("expected error on architecture mismatch")
	}
}

func TestLoadRejectsTruncatedCheckpoint(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(38))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut mid-way through the weight data of some parameter: the error must
	// say "truncated" and name the field instead of panicking or mis-reading.
	m2 := New(smallConfig(false), tensor.NewRNG(39))
	err := m2.Load(bytes.NewReader(full[:len(full)/2]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error = %v", err)
	}
	// Cut inside the header region too.
	if err := m2.Load(bytes.NewReader(full[:6])); err == nil {
		t.Fatal("expected error on truncated header")
	}
}

func TestLoadRejectsParamNameMismatch(t *testing.T) {
	cfg := smallConfig(false)
	m := New(cfg, tensor.NewRNG(40))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Name = "different-model"
	m2 := New(other, tensor.NewRNG(41))
	err := m2.Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "model expects") {
		t.Fatalf("name mismatch error = %v", err)
	}
}

func TestLoadErrorNamesShapeMismatch(t *testing.T) {
	cfg := smallConfig(false)
	m := New(cfg, tensor.NewRNG(42))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.DModel = 16
	other.FFNDim = 32
	m2 := New(other, tensor.NewRNG(43))
	err := m2.Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("expected shape mismatch error")
	}
	// The message must carry the field name and both shapes.
	if !strings.Contains(err.Error(), "tok_emb") || !strings.Contains(err.Error(), "expects") {
		t.Fatalf("shape mismatch error lacks field/shape detail: %v", err)
	}
}
