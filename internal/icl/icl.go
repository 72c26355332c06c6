// Package icl implements in-context learning for anomaly detection (Section
// III-B of the paper): zero- and few-shot prompting of decoder-only models,
// parameter-efficient LoRA fine-tuning under 4-bit quantization (Table III),
// ranking evaluation against unsupervised baselines (Table IV), and
// chain-of-thought interpretability (Figure 13).
//
// LoRA fine-tuning takes a transformer.Trainer step per prompt. Every
// classification — the paper's evaluations included — runs the model's one
// forward untaped, as the detection service does: the few-shot context's
// query-independent prefix is encoded once into a PromptCache, and batches
// of query suffixes continue it (Detector.ClassifyBatchCachedWS).
package icl

import (
	"fmt"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/metrics"
	"repro/internal/prompt"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// ExampleMix selects which labels appear among in-context demonstrations —
// the three few-shot settings of Table III.
type ExampleMix int

// Example mixes: both classes, anomalous-only ("positive"), normal-only
// ("negative") in the paper's terminology.
const (
	Mixed ExampleMix = iota
	PositiveOnly
	NegativeOnly
)

// String names the mix.
func (m ExampleMix) String() string {
	switch m {
	case Mixed:
		return "mixed"
	case PositiveOnly:
		return "pos-only"
	case NegativeOnly:
		return "neg-only"
	}
	return fmt.Sprintf("mix(%d)", int(m))
}

// SelectExamples picks n demonstration jobs from pool respecting the mix
// (alternating labels for Mixed), deterministically in seed. It returns the
// chosen jobs; use PromptExamples to render them.
func SelectExamples(pool []flowbench.Job, n int, mix ExampleMix, seed uint64) []flowbench.Job {
	rng := tensor.NewRNG(seed)
	var normal, anom []flowbench.Job
	for _, j := range pool {
		if j.Label == 0 {
			normal = append(normal, j)
		} else {
			anom = append(anom, j)
		}
	}
	pick := func(from []flowbench.Job) (flowbench.Job, bool) {
		if len(from) == 0 {
			return flowbench.Job{}, false
		}
		return from[rng.Intn(len(from))], true
	}
	out := make([]flowbench.Job, 0, n)
	for i := 0; i < n; i++ {
		var j flowbench.Job
		var ok bool
		switch mix {
		case PositiveOnly:
			j, ok = pick(anom)
		case NegativeOnly:
			j, ok = pick(normal)
		default:
			if i%2 == 0 {
				j, ok = pick(normal)
			} else {
				j, ok = pick(anom)
			}
		}
		if ok {
			out = append(out, j)
		}
	}
	return out
}

// PromptExamples renders jobs as prompt demonstrations.
func PromptExamples(jobs []flowbench.Job) []prompt.Example {
	out := make([]prompt.Example, len(jobs))
	for i, j := range jobs {
		out[i] = prompt.Example{Sentence: logparse.Sentence(j), Label: logparse.LabelWord(j.Label)}
	}
	return out
}

// Detector is a decoder-only model with its tokenizer, performing
// classification by constrained next-token decoding over the two label
// words.
type Detector struct {
	Model *transformer.Model
	Tok   *tokenizer.Tokenizer
}

// NewDetector wraps a causal model and tokenizer.
func NewDetector(m *transformer.Model, tok *tokenizer.Tokenizer) *Detector {
	if !m.Config.Causal {
		panic("icl: detector requires a causal (decoder-only) model")
	}
	return &Detector{Model: m, Tok: tok}
}

// labelChoiceIDs returns the token ids of the normal and abnormal label
// words.
func (d *Detector) labelChoiceIDs() [2]int {
	return [2]int{d.Tok.ID(logparse.LabelNormal), d.Tok.ID(logparse.LabelAbnormal)}
}

// PromptCache holds the KV cache of a fixed few-shot context's
// query-independent prefix (task description + examples + "instruct :").
// Build it once with NewPromptCache and reuse it across ClassifyBatchCachedWS
// calls — including concurrent ones: the prefix's keys and values are
// read-only after construction, and the one thing use writes is the cache's
// bounded tree of query suffix rows, which transformer.KVCache guards with
// its own lock.
type PromptCache struct {
	examples []prompt.Example
	cache    *transformer.KVCache // nil when the prefix alone overflows the context
	choices  [2]int
}

// NewPromptCache encodes the query-independent prompt prefix for examples
// into a reusable KV cache. When the prefix alone exceeds the model's
// context the cache is empty and classification falls back to full prompts.
func (d *Detector) NewPromptCache(examples []prompt.Example) *PromptCache {
	pc := &PromptCache{examples: examples, choices: d.labelChoiceIDs()}
	prefixIDs := append([]int{tokenizer.BOS}, d.Tok.Encode(prompt.FewShotPrefix(examples), false)...)
	if len(prefixIDs) < d.Model.Config.MaxSeqLen {
		pc.cache = d.Model.InferKVCache(prefixIDs)
	}
	return pc
}

// ClassifyBatchCachedWS classifies a batch of query sentences against the
// few-shot context pc was built for, returning per-query labels (0 normal, 1
// abnormal) and constrained (normal, abnormal) probability pairs in input
// order. Only the query suffixes run through the block stack, as one packed
// batch continuing the cached prefix. A query whose suffix would overflow
// the context — or every query, when the prefix alone does — runs as a full
// prompt instead, cut to its right edge, where the query is. Scratch comes
// from ws, which is used, not reset: a long-lived inference worker resets its
// own arena between batches, and a one-shot caller passes nil. The path reads
// the model without mutating it, so it is safe to call concurrently.
func (d *Detector) ClassifyBatchCachedWS(pc *PromptCache, queries []string, ws *tensor.Workspace) ([]int, [][2]float32) {
	if len(queries) == 0 {
		return nil, nil
	}
	//lint:ignore hotalloc returned to the caller; results must outlive the workspace's next Reset
	labels := make([]int, len(queries))
	//lint:ignore hotalloc returned to the caller; results must outlive the workspace's next Reset
	out := make([][2]float32, len(queries))
	var cachedIdx, fullIdx []int
	var suffixes, fullPrompts [][]int
	for i, q := range queries {
		if pc.cache != nil {
			suffix := d.Tok.Encode(prompt.QuerySuffix(q), false)
			if len(suffix) > 0 && pc.cache.Len+len(suffix) <= d.Model.Config.MaxSeqLen {
				cachedIdx = append(cachedIdx, i)
				suffixes = append(suffixes, suffix)
				continue
			}
		}
		fullIdx = append(fullIdx, i)
		p := prompt.FewShot(pc.examples, q)
		//lint:ignore hotalloc full-prompt fallback, taken only when the prefix cache cannot serve the query
		ids := append([]int{tokenizer.BOS}, d.Tok.Encode(p, false)...)
		if n := d.Model.Config.MaxSeqLen; len(ids) > n {
			ids = ids[len(ids)-n:]
		}
		fullPrompts = append(fullPrompts, ids)
	}
	if len(suffixes) > 0 {
		best, probs := d.Model.ScoreChoiceBatchWithCacheWS(pc.cache, suffixes, pc.choices[:], ws)
		for k, i := range cachedIdx {
			labels[i] = best[k]
			out[i] = [2]float32{probs[k][0], probs[k][1]}
		}
	}
	if len(fullPrompts) > 0 {
		best, probs := d.Model.ScoreChoiceBatchWithCacheWS(nil, fullPrompts, pc.choices[:], ws)
		for k, i := range fullIdx {
			labels[i] = best[k]
			out[i] = [2]float32{probs[k][0], probs[k][1]}
		}
	}
	return labels, out
}

// evalChunk is how many queries one evaluation forward packs.
const evalChunk = 32

// classifyJobs classifies jobs' full sentences against one few-shot context:
// a single PromptCache serves every chunk of evalChunk queries, each chunk on
// the same pooled workspace.
func (d *Detector) classifyJobs(jobs []flowbench.Job, examples []prompt.Example) ([]int, [][2]float32) {
	pc := d.NewPromptCache(examples)
	ws := tensor.GetWorkspace()
	defer tensor.PutWorkspace(ws)
	labels := make([]int, 0, len(jobs))
	probs := make([][2]float32, 0, len(jobs))
	for lo := 0; lo < len(jobs); lo += evalChunk {
		chunk := jobs[lo:min(lo+evalChunk, len(jobs))]
		queries := make([]string, len(chunk))
		for i, j := range chunk {
			queries[i] = logparse.Sentence(j)
		}
		ws.Reset()
		l, p := d.ClassifyBatchCachedWS(pc, queries, ws)
		labels = append(labels, l...)
		probs = append(probs, p...)
	}
	return labels, probs
}

// jobLabels returns jobs' ground-truth labels.
func jobLabels(jobs []flowbench.Job) []int {
	labels := make([]int, len(jobs))
	for i, j := range jobs {
		labels[i] = j.Label
	}
	return labels
}

// Evaluate scores the detector over jobs with a fixed prompt context.
func Evaluate(d *Detector, jobs []flowbench.Job, examples []prompt.Example) metrics.Confusion {
	preds, _ := d.classifyJobs(jobs, examples)
	return metrics.NewConfusion(jobLabels(jobs), preds)
}

// AnomalyScores returns labels and anomaly scores (probability of the
// abnormal label) for ranking metrics.
func AnomalyScores(d *Detector, jobs []flowbench.Job, examples []prompt.Example) ([]int, []float64) {
	_, probs := d.classifyJobs(jobs, examples)
	scores := make([]float64, len(jobs))
	for i, p := range probs {
		scores[i] = float64(p[1])
	}
	return jobLabels(jobs), scores
}

// FineTuneConfig controls quantized LoRA fine-tuning (the "FT: Yes" rows of
// Table III).
type FineTuneConfig struct {
	// Steps is the number of prompt documents trained on.
	Steps int
	// LR is the AdamW learning rate for the adapter parameters.
	LR float64
	// Rank, Alpha, Dropout are the LoRA hyperparameters (paper: 64, 128,
	// 0.05; scaled-down default 8, 16, 0.05).
	Rank    int
	Alpha   float64
	Dropout float32
	// ExamplesPerPrompt is the number of demonstrations per training
	// document.
	ExamplesPerPrompt int
	// Mix selects demonstration labels.
	Mix ExampleMix
	// Quantize applies 4-bit quantization to the base weights before
	// adapting, as the paper does with BitsAndBytes.
	Quantize bool
	// Seed controls sampling.
	Seed uint64
}

// DefaultFineTuneConfig mirrors the paper's recipe at repository scale.
func DefaultFineTuneConfig() FineTuneConfig {
	return FineTuneConfig{
		Steps: 300, LR: 2e-3, Rank: 8, Alpha: 16, Dropout: 0.05,
		ExamplesPerPrompt: 4, Mix: Mixed, Quantize: true, Seed: 11,
	}
}

// FineTuneResult reports the parameter-efficiency numbers of Table III.
type FineTuneResult struct {
	// TrainableParams and TotalParams give the LoRA share of the model.
	TrainableParams, TotalParams int
	// QuantBytes and FP32Bytes measure base-weight memory before/after
	// quantization (0 when Quantize is false).
	QuantBytes, FP32Bytes int
	// FinalLoss is the mean answer-token loss over the last 10% of steps.
	FinalLoss float64
}

// TrainableFraction is TrainableParams/TotalParams.
func (r FineTuneResult) TrainableFraction() float64 {
	if r.TotalParams == 0 {
		return 0
	}
	return float64(r.TrainableParams) / float64(r.TotalParams)
}

// FineTune adapts the detector on labeled jobs: each step samples a few-shot
// prompt document ending in the true answer word and trains only the LoRA
// adapters on the answer token's cross-entropy. The base model is optionally
// 4-bit quantized first.
func FineTune(d *Detector, train []flowbench.Job, cfg FineTuneConfig) FineTuneResult {
	if cfg.Steps <= 0 {
		panic("icl: non-positive fine-tune steps")
	}
	var res FineTuneResult
	if cfg.Quantize {
		res.QuantBytes, res.FP32Bytes = d.Model.Quantize4Bit()
	}
	rng := tensor.NewRNG(cfg.Seed)
	res.TrainableParams, res.TotalParams = d.Model.ApplyLoRA(cfg.Rank, cfg.Alpha, cfg.Dropout, rng.Split())
	tr := transformer.NewTrainer(d.Model, cfg.LR, 0, 1, 1)
	tailStart := cfg.Steps * 9 / 10
	var tail float64
	tailN := 0
	for step := 0; step < cfg.Steps; step++ {
		q := train[rng.Intn(len(train))]
		exJobs := SelectExamples(train, cfg.ExamplesPerPrompt, cfg.Mix, rng.Uint64())
		doc := prompt.Document(PromptExamples(exJobs), logparse.Sentence(q), logparse.LabelWord(q.Label))
		ids := append([]int{tokenizer.BOS}, d.Tok.Encode(doc, false)...)
		if len(ids) > d.Model.Config.MaxSeqLen {
			// Keep the right edge: the answer token must stay in context.
			ids = ids[len(ids)-d.Model.Config.MaxSeqLen:]
		}
		inputs := ids[:len(ids)-1]
		targets := make([]int, len(inputs))
		for i := range targets {
			targets[i] = -1
		}
		targets[len(targets)-1] = ids[len(ids)-1] // supervise only the answer
		loss := tr.LM([][]int{inputs}, [][]int{targets})
		if step >= tailStart {
			tail += loss
			tailN++
		}
	}
	if tailN > 0 {
		res.FinalLoss = tail / float64(tailN)
	}
	return res
}
