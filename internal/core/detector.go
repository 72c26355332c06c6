// Package core is the high-level public API of the library: a unified
// anomaly-detector abstraction over the paper's two approaches (supervised
// fine-tuning and in-context learning), a one-call training pipeline,
// trace-level verdict aggregation, a streaming log monitor, and an HTTP
// detection service for production deployment.
//
// The paper's pitch is that LLM-based detection lets system administrators
// run anomaly detection without ML plumbing; this package is that interface:
//
//	det, _ := core.Train(core.Options{Workflow: flowbench.Genome})
//	res := det.DetectSentence("wms_delay is 6.0 queue_delay is 22.0 ...")
package core

import (
	"fmt"
	"sync"

	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/prompt"
	"repro/internal/sft"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// Approach selects the detection method.
type Approach string

// The two approaches from the paper.
const (
	SFT Approach = "sft" // fine-tuned encoder classifier
	ICL Approach = "icl" // prompted decoder with few-shot examples
)

// Precision names the weight format a detector serves with.
type Precision string

// Serving precisions. PrecisionFP32 is the trained form; PrecisionInt8 is
// the integer-compute form produced by QuantizeDetector.
const (
	PrecisionFP32 Precision = "fp32"
	PrecisionInt8 Precision = "int8"
)

// Result is a single detection outcome.
type Result struct {
	// Label is 0 (normal) or 1 (abnormal).
	Label int
	// Score is the probability assigned to the abnormal class.
	Score float64
}

// abnormal reports whether the result flags an anomaly.
func (r Result) abnormal() bool { return r.Label == 1 }

// String renders the result like the paper's online-detection figure.
func (r Result) String() string {
	return fmt.Sprintf("label: LABEL_%d, score: %.4f", r.Label, r.Score)
}

// Model is what the serving engine sees of a served model: one call that
// answers a batch, and the two facts /v1/models reports. Both built-in
// detectors are Models, and so is a fleet front's remote model
// (internal/gateway), which computes in another process.
type Model interface {
	// Detect classifies sentences and returns their results in input order.
	// Scratch buffers come from ws, which Detect uses but does not reset: the
	// caller resets it between calls and never shares it between concurrent
	// calls. A nil ws draws a pooled arena. An in-process model never returns
	// an error. A remote model ignores ws, and its error fails every request
	// of the batch with it — an *OverloadedError as a shed. There is no
	// context: one batch serves several callers, so a remote model runs it
	// under a context of its own.
	Detect(sentences []string, ws *tensor.Workspace) ([]Result, error)
	// Approach identifies the underlying method.
	Approach() Approach
	// Precision names the weight format the model serves with.
	Precision() Precision
}

// Detector is an in-process Model, implemented by both approaches, with two
// conveniences that cannot fail. The batched path reads the model without
// mutating layer state, so both are safe to call from concurrent goroutines.
type Detector interface {
	Model
	// DetectBatch is Detect on a pooled arena.
	DetectBatch(sentences []string) []Result
	// DetectSentence classifies a parsed feature sentence (Fig 2 format): a
	// DetectBatch of one.
	DetectSentence(sentence string) Result
}

// localDetector is the in-process Detector of either approach: the model and
// tokenizer it serves, the few-shot examples an ICL detector prompts with
// (nil for SFT), and classify, the approach's batched call, bound at
// construction. Its verdict for a sentence is a function of
// tokenizer.Tokenize(sentence) alone — SFT encodes exactly those tokens, and
// the ICL prompt appends the query after a space, so its tokens continue the
// prefix's — which is why an engine memoizes it (memo.go).
type localDetector struct {
	approach Approach
	model    *transformer.Model
	tok      *tokenizer.Tokenizer
	examples []prompt.Example
	classify func(sentences []string, ws *tensor.Workspace) ([]int, [][2]float32)
}

// newLocalDetector binds the approach's batched call over model and tok. An
// ICL detector builds its few-shot context's KV cache on first use and
// shares it with every later, possibly concurrent, call.
func newLocalDetector(approach Approach, model *transformer.Model, tok *tokenizer.Tokenizer, examples []prompt.Example) *localDetector {
	d := &localDetector{approach: approach, model: model, tok: tok, examples: examples}
	if approach == SFT {
		d.classify = sft.NewClassifier(model, tok).PredictBatchWS
		return d
	}
	det := icl.NewDetector(model, tok)
	cache := sync.OnceValue(func() *icl.PromptCache { return det.NewPromptCache(examples) })
	d.classify = func(sentences []string, ws *tensor.Workspace) ([]int, [][2]float32) {
		return det.ClassifyBatchCachedWS(cache(), sentences, ws)
	}
	return d
}

// NewSFTDetector wraps a fine-tuned classifier as a Detector.
func NewSFTDetector(clf *sft.Classifier) Detector {
	return newLocalDetector(SFT, clf.Model, clf.Tok, nil)
}

// NewICLDetector wraps a prompted decoder as a Detector with the given
// in-context examples.
func NewICLDetector(det *icl.Detector, examples []prompt.Example) Detector {
	return newLocalDetector(ICL, det.Model, det.Tok, examples)
}

func (d *localDetector) Detect(sentences []string, ws *tensor.Workspace) ([]Result, error) {
	if ws == nil {
		ws = tensor.GetWorkspace()
		defer tensor.PutWorkspace(ws)
	}
	labels, probs := d.classify(sentences, ws)
	return toResults(labels, probs), nil
}

func (d *localDetector) DetectBatch(sentences []string) []Result {
	res, _ := d.Detect(sentences, nil) // an in-process model never fails
	return res
}

func (d *localDetector) DetectSentence(sentence string) Result {
	return d.DetectBatch([]string{sentence})[0]
}

func (d *localDetector) Approach() Approach { return d.approach }

func (d *localDetector) Precision() Precision {
	if d.model.IsQuantized() {
		return PrecisionInt8
	}
	return PrecisionFP32
}

// toResults pairs predicted labels with their abnormal-class probabilities.
func toResults(labels []int, probs [][2]float32) []Result {
	out := make([]Result, len(labels))
	for i := range labels {
		out[i] = Result{Label: labels[i], Score: float64(probs[i][1])}
	}
	return out
}

// QuantizeDetector converts a trained (or loaded) detector to int8 serving
// form: LoRA adapters are merged, every transformer projection switches to
// the integer compute path, and a fresh Detector wrapping the same model is
// returned (fresh so an ICL detector's prompt KV cache is rebuilt through the
// quantized weights rather than reusing fp32 activations). Quantize before
// serving traffic; the input detector must not be used afterwards. Detectors
// not produced by this package are rejected, as are already-quantized ones.
func QuantizeDetector(det Detector) (Detector, error) {
	if det.Precision() == PrecisionInt8 {
		return nil, fmt.Errorf("core: detector is already int8-quantized")
	}
	d, ok := det.(*localDetector)
	if !ok {
		return nil, fmt.Errorf("core: cannot quantize detector of type %T (not produced by core.Train or core.LoadDetectorFile)", det)
	}
	d.model.QuantizeInt8(0)
	return newLocalDetector(d.approach, d.model, d.tok, d.examples), nil
}

// Options configures the end-to-end Train pipeline.
type Options struct {
	// Approach selects SFT (default) or ICL.
	Approach Approach
	// Workflow supplies the training data (default 1000 Genome).
	Workflow flowbench.Workflow
	// Model is a registry name; empty selects bert-base-uncased (SFT) or
	// mistral (ICL).
	Model string
	// TrainSize caps the training subsample (default 1000).
	TrainSize int
	// PretrainSteps is the MLM/CLM budget (default 400).
	PretrainSteps int
	// Epochs is the SFT budget (default 3); ICL uses 300 LoRA steps.
	Epochs int
	// Shots is the ICL few-shot example count (default 5).
	Shots int
	// LoRASteps is the ICL LoRA fine-tuning budget (default 300).
	LoRASteps int
	// Debias adds the empty-sentence augmentation (SFT only).
	Debias bool
	// Seed anchors all randomness (default 42).
	Seed uint64
}

func (o *Options) fill() error {
	if o.Approach == "" {
		o.Approach = SFT
	}
	if o.Approach != SFT && o.Approach != ICL {
		return fmt.Errorf("core: unknown approach %q", o.Approach)
	}
	if o.Workflow == "" {
		o.Workflow = flowbench.Genome
	}
	if o.Model == "" {
		if o.Approach == SFT {
			o.Model = "bert-base-uncased"
		} else {
			o.Model = "mistral"
		}
	}
	spec, ok := models.Get(o.Model)
	if !ok {
		return fmt.Errorf("core: unknown model %q", o.Model)
	}
	if o.Approach == SFT && spec.Kind != models.Encoder {
		return fmt.Errorf("core: SFT requires an encoder model, %q is a decoder", o.Model)
	}
	if o.Approach == ICL && spec.Kind != models.Decoder {
		return fmt.Errorf("core: ICL requires a decoder model, %q is an encoder", o.Model)
	}
	if o.TrainSize <= 0 {
		o.TrainSize = 1000
	}
	if o.PretrainSteps <= 0 {
		o.PretrainSteps = 400
	}
	if o.Epochs <= 0 {
		o.Epochs = 3
	}
	if o.Shots <= 0 {
		o.Shots = 5
	}
	if o.LoRASteps <= 0 {
		o.LoRASteps = 300
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return nil
}

// TrainReport summarizes a Train run.
type TrainReport struct {
	// Test is the held-out confusion matrix.
	Test metrics.Confusion
	// Params is the model's parameter count.
	Params int
	// VocabSize is the tokenizer vocabulary size.
	VocabSize int
}

// Train runs the full pipeline for the chosen approach — dataset generation,
// vocabulary construction, pre-training, and task adaptation — and returns a
// ready Detector plus a training report.
func Train(opts Options) (Detector, *TrainReport, error) {
	if err := opts.fill(); err != nil {
		return nil, nil, err
	}
	ds := flowbench.Generate(opts.Workflow, opts.Seed).
		Subsample(opts.TrainSize, 200, 300, opts.Seed+1)
	corpus, tok := pretrain.Vocabulary(pretrain.DefaultCorpus(), ds.Train)
	model := models.MustGet(opts.Model).Build(tok.VocabSize())
	pretrain.Run(model, tok, corpus, pretrain.Options{Steps: opts.PretrainSteps, LR: 3e-3, Seed: opts.Seed})

	var det Detector
	switch opts.Approach {
	case SFT:
		clf := sft.NewClassifier(model, tok)
		cfg := sft.DefaultTrainConfig()
		cfg.Epochs = opts.Epochs
		cfg.Seed = opts.Seed
		if opts.Debias {
			cfg.Augment = sft.DebiasAugmentation(40)
		}
		sft.Train(clf, sft.JobExamples(ds.Train), nil, cfg)
		det = NewSFTDetector(clf)
	case ICL:
		d := icl.NewDetector(model, tok)
		ftCfg := icl.DefaultFineTuneConfig()
		ftCfg.Steps = opts.LoRASteps
		ftCfg.Seed = opts.Seed
		icl.FineTune(d, ds.Train, ftCfg)
		exs := icl.PromptExamples(icl.SelectExamples(ds.Train, opts.Shots, icl.Mixed, opts.Seed))
		det = NewICLDetector(d, exs)
	}

	labels := make([]int, len(ds.Test))
	for i, j := range ds.Test {
		labels[i] = j.Label
	}
	report := &TrainReport{
		Test:      metrics.NewConfusion(labels, detectLabels(det, ds.Test)),
		Params:    model.ParamCount(),
		VocabSize: tok.VocabSize(),
	}
	return det, report, nil
}
