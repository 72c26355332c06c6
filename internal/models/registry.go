// Package models is the registry of pre-trained model configurations used in
// the paper's experiments: the twelve encoder-only models of Figures 4/5
// (BERT, DistilBERT, RoBERTa, ALBERT, XLNet families) and the three
// decoder-only models of Table III (GPT-2, Mistral, LLama2).
//
// Substitution note: the real checkpoints are 66M–340M (encoders) and
// 127M–7B (decoders) parameters; here each name maps to a CPU-trainable
// configuration that preserves the family's architectural signature and the
// zoo's *relative* size ordering (distilbert < base < large; ALBERT shares
// parameters across layers; XLNet is the widest per layer; GPT-2 ≪ Mistral ≈
// LLama2), which is what the paper's size-vs-accuracy and size-vs-time claims
// are about.
package models

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/transformer"
)

// Kind distinguishes encoder-only (SFT) from decoder-only (ICL) models.
type Kind int

// Model kinds.
const (
	Encoder Kind = iota
	Decoder
)

// Spec is a registry entry.
type Spec struct {
	// Name matches the HuggingFace checkpoint name used in the paper.
	Name string
	// Kind selects bidirectional (Encoder) or causal (Decoder) attention.
	Kind Kind
	// Layers, DModel, Heads, FFN define the scaled-down architecture.
	Layers, DModel, Heads, FFN int
	// Share enables ALBERT-style cross-layer parameter sharing.
	Share bool
	// Dropout is the residual dropout probability.
	Dropout float32
	// Seed decorrelates initializations of otherwise-identical configs
	// (e.g. cased vs uncased variants).
	Seed uint64
}

// encoderSpecs lists the twelve Figure 4/5 models in the paper's order.
var encoderSpecs = []Spec{
	{Name: "albert-base-v2", Kind: Encoder, Layers: 4, DModel: 48, Heads: 4, FFN: 96, Share: true, Dropout: 0.1, Seed: 101},
	{Name: "albert-large-v2", Kind: Encoder, Layers: 6, DModel: 64, Heads: 4, FFN: 128, Share: true, Dropout: 0.1, Seed: 102},
	{Name: "bert-base-cased", Kind: Encoder, Layers: 4, DModel: 48, Heads: 4, FFN: 96, Dropout: 0.1, Seed: 103},
	{Name: "bert-base-uncased", Kind: Encoder, Layers: 4, DModel: 48, Heads: 4, FFN: 96, Dropout: 0.1, Seed: 104},
	{Name: "bert-large-cased", Kind: Encoder, Layers: 6, DModel: 64, Heads: 4, FFN: 128, Dropout: 0.1, Seed: 105},
	{Name: "bert-large-uncased", Kind: Encoder, Layers: 6, DModel: 64, Heads: 4, FFN: 128, Dropout: 0.1, Seed: 106},
	{Name: "distilbert-base-cased", Kind: Encoder, Layers: 2, DModel: 40, Heads: 4, FFN: 80, Dropout: 0.1, Seed: 107},
	{Name: "distilbert-base-uncased", Kind: Encoder, Layers: 2, DModel: 40, Heads: 4, FFN: 80, Dropout: 0.1, Seed: 108},
	{Name: "roberta-base", Kind: Encoder, Layers: 4, DModel: 48, Heads: 4, FFN: 96, Dropout: 0.1, Seed: 109},
	{Name: "roberta-large", Kind: Encoder, Layers: 6, DModel: 64, Heads: 4, FFN: 128, Dropout: 0.1, Seed: 110},
	{Name: "xlnet-base-cased", Kind: Encoder, Layers: 4, DModel: 56, Heads: 4, FFN: 112, Dropout: 0.1, Seed: 111},
	{Name: "xlnet-large-cased", Kind: Encoder, Layers: 6, DModel: 72, Heads: 4, FFN: 144, Dropout: 0.1, Seed: 112},
}

// decoderSpecs lists the three Table III models. The Mistral and LLama2
// entries are the same scale tier (both 7B in the paper), far above GPT-2.
var decoderSpecs = []Spec{
	{Name: "gpt2", Kind: Decoder, Layers: 3, DModel: 32, Heads: 4, FFN: 64, Dropout: 0.1, Seed: 201},
	{Name: "mistral", Kind: Decoder, Layers: 6, DModel: 96, Heads: 4, FFN: 192, Dropout: 0.1, Seed: 202},
	{Name: "llama2", Kind: Decoder, Layers: 6, DModel: 88, Heads: 4, FFN: 176, Dropout: 0.1, Seed: 203},
}

// Get looks up a spec by checkpoint name.
func Get(name string) (Spec, bool) {
	for _, specs := range [][]Spec{encoderSpecs, decoderSpecs} {
		for _, s := range specs {
			if s.Name == name {
				return s, true
			}
		}
	}
	return Spec{}, false
}

// MustGet looks up a spec by name and panics if absent.
func MustGet(name string) Spec {
	s, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("models: unknown model %q", name))
	}
	return s
}

// encoderMaxSeq and decoderMaxSeq are the context lengths models are built
// with: encoders see single job sentences; decoders see multi-example ICL
// prompts.
const (
	encoderMaxSeq = 64
	decoderMaxSeq = 512
)

// Build instantiates a randomly initialized model for the spec over a
// vocabulary of the given size, with a binary classification head. The
// caller pre-trains it (internal/pretrain) to obtain the "pre-trained
// checkpoint" the experiments start from.
func (s Spec) Build(vocabSize int) *transformer.Model {
	return s.BuildClasses(vocabSize, 2)
}

// BuildClasses is Build with a K-way classification head, used by the
// anomaly-type extension (normal / CPU / HDD).
func (s Spec) BuildClasses(vocabSize, numClasses int) *transformer.Model {
	maxSeq := encoderMaxSeq
	causal := false
	if s.Kind == Decoder {
		maxSeq = decoderMaxSeq
		causal = true
	}
	cfg := transformer.Config{
		Name:        s.Name,
		VocabSize:   vocabSize,
		MaxSeqLen:   maxSeq,
		DModel:      s.DModel,
		NumHeads:    s.Heads,
		NumLayers:   s.Layers,
		FFNDim:      s.FFN,
		Dropout:     s.Dropout,
		Causal:      causal,
		ShareLayers: s.Share,
		NumClasses:  numClasses,
	}
	return transformer.New(cfg, tensor.NewRNG(s.Seed))
}
