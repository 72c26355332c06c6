package transformer

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config describes a transformer model's architecture. Encoder-only models
// (Causal=false) are used for SFT sentence classification; decoder-only
// models (Causal=true) are used for ICL text generation.
type Config struct {
	// Name identifies the model in the registry (e.g. "bert-base-uncased").
	Name string
	// VocabSize is the tokenizer vocabulary size.
	VocabSize int
	// MaxSeqLen bounds sequence length (positional embedding table size).
	MaxSeqLen int
	// DModel is the residual stream width.
	DModel int
	// NumHeads is the number of attention heads.
	NumHeads int
	// NumLayers is the number of transformer blocks.
	NumLayers int
	// FFNDim is the feed-forward hidden width.
	FFNDim int
	// Dropout is the residual dropout probability.
	Dropout float32
	// Causal selects decoder-style masked attention.
	Causal bool
	// ShareLayers enables ALBERT-style cross-layer parameter sharing: all
	// NumLayers blocks reuse one set of weights.
	ShareLayers bool
	// NumClasses sizes the classification head (2 for normal/abnormal).
	NumClasses int
}

// Model is a transformer with a token+position embedding, a stack of blocks,
// a final layer norm, and two heads: a language-model head (used for MLM/CLM
// pre-training and ICL generation) and a classification head (used for SFT).
type Model struct {
	Config  Config
	TokEmb  *nn.Embedding
	PosEmb  *nn.Embedding
	Blocks  []*Block
	FinalLN *nn.LayerNorm
	// LMHead is nn.Layer (constructed as *nn.Linear) so Model.QuantizeInt8
	// can swap it for an int8 inference layer like every block projection.
	// A decode runs it on one row per sequence, and at the served
	// vocabulary of 120 it is the decode path's smallest matmul. ClsHead
	// stays a concrete *nn.Linear: it is a [DModel, NumClasses] sliver whose
	// quantization would save nothing, and head-only training reaches into
	// it directly.
	LMHead  nn.Layer
	ClsHead *nn.Linear
}

// New constructs a model from cfg with weights initialized from rng.
func New(cfg Config, rng *tensor.RNG) *Model {
	if cfg.NumClasses == 0 {
		cfg.NumClasses = 2
	}
	m := &Model{
		Config:  cfg,
		TokEmb:  nn.NewEmbedding(cfg.Name+".tok_emb", cfg.VocabSize, cfg.DModel, rng),
		PosEmb:  nn.NewEmbedding(cfg.Name+".pos_emb", cfg.MaxSeqLen, cfg.DModel, rng),
		FinalLN: nn.NewLayerNorm(cfg.Name+".final_ln", cfg.DModel),
		LMHead:  nn.NewLinear(cfg.Name+".lm_head", cfg.DModel, cfg.VocabSize, rng),
		ClsHead: nn.NewLinear(cfg.Name+".cls_head", cfg.DModel, cfg.NumClasses, rng),
	}
	if cfg.ShareLayers {
		// The layers hold no activations, so every block runs base's. Each
		// keeps its own dropout streams, and its own attention struct, whose
		// projection slots quantization rewrites block by block.
		base := newBlock(fmt.Sprintf("%s.block", cfg.Name), cfg.DModel, cfg.NumHeads, cfg.FFNDim, cfg.Causal, cfg.Dropout, rng)
		m.Blocks = append(m.Blocks, base)
		for i := 1; i < cfg.NumLayers; i++ {
			b, attn := *base, *base.Attn
			b.Attn = &attn
			b.dropA, b.dropF = nn.NewDropout(cfg.Dropout, rng.Split()), nn.NewDropout(cfg.Dropout, rng.Split())
			m.Blocks = append(m.Blocks, &b)
		}
	} else {
		for i := 0; i < cfg.NumLayers; i++ {
			m.Blocks = append(m.Blocks, newBlock(fmt.Sprintf("%s.block%d", cfg.Name, i), cfg.DModel, cfg.NumHeads, cfg.FFNDim, cfg.Causal, cfg.Dropout, rng))
		}
	}
	return m
}

// Params returns all parameters: backbone, LM head, and classification head.
// Shared (ALBERT) blocks contribute their parameters once.
func (m *Model) Params() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.TokEmb.Params()...)
	out = append(out, m.PosEmb.Params()...)
	seen := make(map[*nn.Param]bool)
	for _, b := range m.Blocks {
		for _, p := range b.Params() {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	out = append(out, m.FinalLN.Params()...)
	out = append(out, m.LMHead.Params()...)
	out = append(out, m.ClsHead.Params()...)
	return out
}

// ParamCount returns the total number of scalar parameters (shared layers
// counted once, as ALBERT reports them).
func (m *Model) ParamCount() int { return nn.ParamCount(m.Params()) }

// FreezeBackbone freezes everything except the classification head. This is
// the "Linear" training strategy of Table II: only the last linear layer is
// updated, which prevents catastrophic forgetting of earlier tasks.
func (m *Model) FreezeBackbone() {
	nn.FreezeAll(m.Params(), true)
	nn.FreezeAll(m.ClsHead.Params(), false)
}

// linears returns every Linear in the model, including those inside
// attention layers (for quantization sweeps). LoRA-wrapped and int8-quantized
// projections are skipped — their bases are already frozen.
func (m *Model) linears() []*nn.Linear {
	var out []*nn.Linear
	for _, b := range m.Blocks {
		for _, l := range []nn.Layer{b.Attn.Wq, b.Attn.Wk, b.Attn.Wv, b.Attn.Wo, b.FF1, b.FF2} {
			if lin, ok := l.(*nn.Linear); ok {
				out = append(out, lin)
			}
		}
	}
	if lin, ok := m.LMHead.(*nn.Linear); ok {
		out = append(out, lin)
	}
	return out
}

// Quantize4Bit applies block-wise 4-bit quantization to every linear layer
// (attention projections, FFN, LM head), replacing weights with their
// dequantized reconstruction and freezing them. It returns the total
// quantized and original byte counts — the memory-saving figure the paper
// attributes to BitsAndBytes.
func (m *Model) Quantize4Bit() (quantBytes, fp32Bytes int) {
	if m.Config.ShareLayers {
		// Quantizing shared blocks repeatedly would re-quantize the same
		// weights; quantize block 0 only.
		panic("transformer: quantization of shared-layer models not supported")
	}
	for _, lin := range m.linears() {
		q, _ := nn.QuantizeLinear(lin, nn.DefaultQuantBlock)
		quantBytes += q.MemoryBytes()
		fp32Bytes += q.Float32Bytes()
	}
	return quantBytes, fp32Bytes
}

// ApplyLoRA wraps the query and value projections of every block with
// rank-r LoRA adapters (the standard LoRA target set), freezing all other
// parameters. Returns the trainable and total parameter counts, which Table
// III reports as "LoRA param (%)".
func (m *Model) ApplyLoRA(rank int, alpha float64, dropout float32, rng *tensor.RNG) (trainable, total int) {
	if m.Config.ShareLayers {
		panic("transformer: LoRA on shared-layer models not supported")
	}
	nn.FreezeAll(m.Params(), true)
	for _, b := range m.Blocks {
		b.Attn.Wq = nn.NewLoRA(b.Attn.Wq.(*nn.Linear), rank, alpha, dropout, rng)
		b.Attn.Wv = nn.NewLoRA(b.Attn.Wv.(*nn.Linear), rank, alpha, dropout, rng)
	}
	ps := m.Params()
	return nn.TrainableCount(ps), nn.ParamCount(ps)
}
