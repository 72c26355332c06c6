package models

import (
	"testing"
)

func TestRegistryCompleteness(t *testing.T) {
	if len(encoderSpecs) != 12 {
		t.Fatalf("encoder zoo has %d entries, want 12 (Fig 4)", len(encoderSpecs))
	}
	if len(decoderSpecs) != 3 {
		t.Fatalf("decoder zoo has %d entries, want 3 (Table III)", len(decoderSpecs))
	}
	names := map[string]bool{}
	for _, s := range append(append([]Spec(nil), encoderSpecs...), decoderSpecs...) {
		if names[s.Name] {
			t.Fatalf("duplicate model name %q", s.Name)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"bert-base-uncased", "distilbert-base-cased", "xlnet-large-cased", "gpt2", "mistral", "llama2"} {
		if !names[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
}

func TestGetAndMustGet(t *testing.T) {
	if _, ok := Get("bert-base-uncased"); !ok {
		t.Fatal("Get failed for known model")
	}
	if _, ok := Get("nonexistent"); ok {
		t.Fatal("Get succeeded for unknown model")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet must panic on unknown model")
		}
	}()
	MustGet("nonexistent")
}

func TestSizeOrderingMatchesFamilies(t *testing.T) {
	const vocab = 300
	count := func(name string) int { return MustGet(name).Build(vocab).ParamCount() }
	distil := count("distilbert-base-uncased")
	base := count("bert-base-uncased")
	large := count("bert-large-uncased")
	if !(distil < base && base < large) {
		t.Fatalf("size ordering broken: distil=%d base=%d large=%d", distil, base, large)
	}
	// ALBERT shares layers, so albert-large is smaller than bert-large.
	albertLarge := count("albert-large-v2")
	if albertLarge >= large {
		t.Fatalf("albert-large (%d) must be smaller than bert-large (%d)", albertLarge, large)
	}
	// Decoders: gpt2 is far smaller than mistral/llama2.
	gpt2 := count("gpt2")
	mistral := count("mistral")
	llama := count("llama2")
	if !(gpt2 < mistral && gpt2 < llama) {
		t.Fatalf("decoder ordering broken: gpt2=%d mistral=%d llama=%d", gpt2, mistral, llama)
	}
}

func TestBuildKinds(t *testing.T) {
	enc := MustGet("bert-base-uncased").Build(100)
	if enc.Config.Causal {
		t.Fatal("encoder must not be causal")
	}
	if enc.Config.MaxSeqLen != encoderMaxSeq {
		t.Fatalf("encoder max seq = %d", enc.Config.MaxSeqLen)
	}
	dec := MustGet("gpt2").Build(100)
	if !dec.Config.Causal {
		t.Fatal("decoder must be causal")
	}
	if dec.Config.MaxSeqLen != decoderMaxSeq {
		t.Fatalf("decoder max seq = %d", dec.Config.MaxSeqLen)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := MustGet("gpt2").Build(50)
	b := MustGet("gpt2").Build(50)
	la := a.ForwardClsBatchWS([][]int{{1, 2, 3}}, nil)
	lb := b.ForwardClsBatchWS([][]int{{1, 2, 3}}, nil)
	if !la.Equal(lb) {
		t.Fatal("Build must be deterministic per spec")
	}
}

func TestCasedUncasedDiffer(t *testing.T) {
	a := MustGet("bert-base-cased").Build(50)
	b := MustGet("bert-base-uncased").Build(50)
	la := a.ForwardClsBatchWS([][]int{{1, 2, 3}}, nil)
	lb := b.ForwardClsBatchWS([][]int{{1, 2, 3}}, nil)
	if la.Equal(lb) {
		t.Fatal("cased/uncased variants must have decorrelated initializations")
	}
}
