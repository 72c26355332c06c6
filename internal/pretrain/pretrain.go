// Package pretrain produces the "pre-trained checkpoints" that the paper's
// SFT and ICL experiments start from. Since no off-the-shelf Go checkpoints
// exist, pre-training is simulated in-process on a synthetic log-language
// corpus:
//
//   - encoder models are trained with masked-language modelling (MLM) over
//     unlabeled job sentences, learning feature-name/magnitude statistics;
//   - decoder models are trained with causal next-token prediction over the
//     same sentences plus prompt-formatted documents whose labels come from
//     RANDOM feature/threshold rules — this teaches prompt-format following
//     and in-context rule induction without leaking the true anomaly labels.
//
// The result mirrors what the paper gets from HuggingFace: models that know
// the log language and the prompt format but have never seen the anomaly
// task's ground truth.
package pretrain

import (
	"fmt"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/prompt"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// CorpusOptions configures BuildCorpus.
type CorpusOptions struct {
	// SentencesPerWorkflow is the number of unlabeled job sentences sampled
	// from each of the three workflows.
	SentencesPerWorkflow int
	// ICLDocs is the number of prompt-formatted random-rule documents.
	ICLDocs int
	// ExamplesPerDoc is the number of demonstrations in each ICL document.
	ExamplesPerDoc int
	// Seed controls sampling.
	Seed uint64
}

// DefaultCorpus is a corpus sized for the repository's experiments.
func DefaultCorpus() CorpusOptions {
	return CorpusOptions{SentencesPerWorkflow: 400, ICLDocs: 200, ExamplesPerDoc: 6, Seed: 0xc0de}
}

// labelPairs are the word pairs random-rule documents use, so that
// "normal"/"abnormal" appear as generic in-context categories rather than
// being bound to any fixed rule.
var labelPairs = [][2]string{
	{"normal", "abnormal"},
	{"low", "high"},
	{"small", "large"},
	{"good", "bad"},
}

// BuildCorpus generates the pre-training corpus. Job features come from
// fresh synthetic traces (seeded independently of the experiment datasets);
// true anomaly labels are never included. The three workflows are generated
// concurrently: each draws from its own seeded RNGs, so the corpus does not
// depend on the schedule.
func BuildCorpus(opts CorpusOptions) []string {
	rng := tensor.NewRNG(opts.Seed)
	var corpus []string
	subs := make([][]flowbench.Job, len(flowbench.Workflows))
	tensor.FanOut(len(subs), 1, func(i, _ int) {
		wf := flowbench.Workflows[i]
		ds := flowbench.Generate(wf, opts.Seed^0xabcd)
		subs[i] = ds.Subsample(opts.SentencesPerWorkflow, 0, 0, opts.Seed+uint64(len(wf))).Train
	})
	// Pool of unlabeled job sentences across all workflows.
	var pool []flowbench.Job
	for _, sub := range subs {
		for _, j := range sub {
			corpus = append(corpus, logparse.Sentence(j))
		}
		pool = append(pool, sub...)
	}
	// One instance of the full task description so every template word is in
	// vocabulary.
	corpus = append(corpus, prompt.TaskDescription(), prompt.CoTSuffix)
	// Random-rule ICL documents.
	for d := 0; d < opts.ICLDocs && len(pool) > 0; d++ {
		corpus = append(corpus, randomRuleDoc(pool, opts.ExamplesPerDoc, rng))
	}
	return corpus
}

// randomRuleDoc builds one prompt-formatted document: jobs labeled by a
// random feature/threshold rule with a random label-word pair.
func randomRuleDoc(pool []flowbench.Job, k int, rng *tensor.RNG) string {
	feat := rng.Intn(flowbench.NumFeatures)
	pair := labelPairs[rng.Intn(len(labelPairs))]
	if rng.Intn(2) == 0 {
		pair[0], pair[1] = pair[1], pair[0]
	}
	// Threshold at the median of a small sample so both labels occur.
	sample := make([]float64, 16)
	for i := range sample {
		sample[i] = pool[rng.Intn(len(pool))].Features[feat]
	}
	for i := 1; i < len(sample); i++ {
		for j := i; j > 0 && sample[j] < sample[j-1]; j-- {
			sample[j], sample[j-1] = sample[j-1], sample[j]
		}
	}
	threshold := sample[len(sample)/2]
	label := func(j flowbench.Job) string {
		if j.Features[feat] >= threshold {
			return pair[1]
		}
		return pair[0]
	}
	var examples []prompt.Example
	for i := 0; i < k; i++ {
		j := pool[rng.Intn(len(pool))]
		examples = append(examples, prompt.Example{Sentence: logparse.Sentence(j), Label: label(j)})
	}
	q := pool[rng.Intn(len(pool))]
	return prompt.Document(examples, logparse.Sentence(q), label(q))
}

// Vocabulary is the recipe's vocabulary step: the pre-training corpus opts
// describes, then the sentences of each training split in order, and the
// tokenizer built over all of it. The corpus it returns is what Run trains on.
func Vocabulary(opts CorpusOptions, splits ...[]flowbench.Job) ([]string, *tokenizer.Tokenizer) {
	corpus := BuildCorpus(opts)
	for _, split := range splits {
		corpus = append(corpus, logparse.Corpus(split)...)
	}
	return corpus, tokenizer.Build(corpus)
}

// Options configures a pre-training run.
type Options struct {
	// Steps is the number of optimization steps (one sequence per step).
	Steps int
	// LR is the AdamW learning rate.
	LR float64
	// Seed controls masking/sampling.
	Seed uint64
}

// Run is the recipe's pre-training step: CLM for a decoder, MLM for an
// encoder, as m.Config.Causal says. It returns the mean loss over the final
// 10% of steps.
func Run(m *transformer.Model, tok *tokenizer.Tokenizer, corpus []string, opts Options) float64 {
	if m.Config.Causal {
		return CLM(m, tok, corpus, opts)
	}
	return MLM(m, tok, corpus, opts)
}

// MLM pre-trains an encoder with masked-language modelling (BERT's 15%
// masking: 80% [MASK], 10% random token, 10% unchanged) and returns the mean
// loss over the final 10% of steps.
func MLM(m *transformer.Model, tok *tokenizer.Tokenizer, corpus []string, opts Options) float64 {
	if m.Config.Causal {
		panic("pretrain: MLM requires an encoder model")
	}
	if len(corpus) == 0 {
		panic("pretrain: empty corpus")
	}
	rng := tensor.NewRNG(opts.Seed)
	tr := transformer.NewTrainer(m, opts.LR, 0.01, 1, 1)
	return runSteps(opts.Steps, func(step int) float64 {
		ids := tok.Encode(corpus[rng.Intn(len(corpus))], true)
		if len(ids) > m.Config.MaxSeqLen {
			ids = ids[:m.Config.MaxSeqLen]
		}
		input := make([]int, len(ids))
		targets := make([]int, len(ids))
		copy(input, ids)
		for i := range targets {
			targets[i] = -1
		}
		masked := 0
		for i, id := range ids {
			if id == tokenizer.CLS || id == tokenizer.SEP {
				continue
			}
			if rng.Float64() < 0.15 {
				targets[i] = id
				masked++
				switch r := rng.Float64(); {
				case r < 0.8:
					input[i] = tokenizer.MASK
				case r < 0.9:
					input[i] = rng.Intn(tok.VocabSize())
				}
			}
		}
		if masked == 0 && len(ids) > 2 {
			i := 1 + rng.Intn(len(ids)-2)
			targets[i] = ids[i]
			input[i] = tokenizer.MASK
		}
		return tr.LM([][]int{input}, [][]int{targets})
	})
}

// CLM pre-trains a decoder with next-token prediction and returns the mean
// loss over the final 10% of steps.
func CLM(m *transformer.Model, tok *tokenizer.Tokenizer, corpus []string, opts Options) float64 {
	if !m.Config.Causal {
		panic("pretrain: CLM requires a decoder model")
	}
	if len(corpus) == 0 {
		panic("pretrain: empty corpus")
	}
	rng := tensor.NewRNG(opts.Seed)
	tr := transformer.NewTrainer(m, opts.LR, 0.01, 1, 1)
	return runSteps(opts.Steps, func(step int) float64 {
		text := corpus[rng.Intn(len(corpus))]
		ids := append([]int{tokenizer.BOS}, tok.Encode(text, false)...)
		ids = append(ids, tokenizer.EOS)
		if len(ids) > m.Config.MaxSeqLen {
			ids = ids[:m.Config.MaxSeqLen]
		}
		if len(ids) < 2 {
			return 0
		}
		return tr.LM([][]int{ids[:len(ids)-1]}, [][]int{ids[1:]})
	})
}

func runSteps(steps int, stepFn func(int) float64) float64 {
	if steps <= 0 {
		panic(fmt.Sprintf("pretrain: non-positive steps %d", steps))
	}
	tailStart := steps * 9 / 10
	var tail float64
	n := 0
	for s := 0; s < steps; s++ {
		loss := stepFn(s)
		if s >= tailStart {
			tail += loss
			n++
		}
	}
	return tail / float64(n)
}
