// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment is a method on Lab returning a Table
// (printable rows); cmd/expbench and the repository's benchmarks drive them.
//
// Absolute numbers differ from the paper, by substitution: the models are the
// paper's families scaled down to CPU-trainable sizes that keep their size
// ordering (internal/models), pre-trained in-process on a synthetic
// log-language corpus instead of loaded from public checkpoints
// (internal/pretrain), and Flow-Bench is regenerated synthetically with its
// Table I statistics (internal/flowbench). Each experiment preserves the
// paper's comparison structure: who is compared, over what workload, and
// which direction the result should point. The measured values are the
// tables cmd/expbench prints; the paper's are in the paper.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/flowbench"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// Scale sets the working sizes of all experiments. Quick is used by tests
// and benchmarks; Standard by cmd/expbench.
type Scale struct {
	// Train, Val, Test are per-workflow stratified subsample sizes.
	Train, Val, Test int
	// PretrainSteps is the MLM/CLM budget per checkpoint.
	PretrainSteps int
	// Epochs is the default SFT budget.
	Epochs int
	// ICLFTSteps is the LoRA fine-tuning budget.
	ICLFTSteps int
	// ICLEval caps the number of queries per ICL evaluation (prompted
	// forward passes are the slowest operation).
	ICLEval int
	// Runs is the number of independent runs for the bias probe (Fig 9).
	Runs int
	// Fig6Epochs is the long-training budget of Figure 6.
	Fig6Epochs int
	// Fig12Shots lists the prompt example counts swept in Figure 12.
	Fig12Shots []int
	// Seed anchors all derived randomness.
	Seed uint64
}

// Tiny is the smallest runnable scale — seconds per experiment — for smoke
// tests and CI, where the goal is exercising every code path rather than
// reproducing the paper's numbers.
func Tiny() Scale {
	return Scale{
		Train: 120, Val: 40, Test: 60,
		PretrainSteps: 40, Epochs: 1, ICLFTSteps: 30, ICLEval: 20,
		Runs: 1, Fig6Epochs: 2, Fig12Shots: []int{0, 2}, Seed: 5,
	}
}

// Quick is a small scale for tests and benchmarks (tens of seconds per
// experiment).
func Quick() Scale {
	return Scale{
		Train: 300, Val: 100, Test: 150,
		PretrainSteps: 120, Epochs: 2, ICLFTSteps: 100, ICLEval: 40,
		Runs: 2, Fig6Epochs: 8, Fig12Shots: []int{0, 2, 4}, Seed: 42,
	}
}

// Standard is the scale used by cmd/expbench for the recorded results.
func Standard() Scale {
	return Scale{
		Train: 1500, Val: 300, Test: 500,
		PretrainSteps: 600, Epochs: 3, ICLFTSteps: 400, ICLEval: 200,
		Runs: 10, Fig6Epochs: 50, Fig12Shots: []int{0, 2, 4, 6, 8}, Seed: 42,
	}
}

// Lab caches the expensive shared state of the experiment suite: the
// subsampled datasets, the shared tokenizer, and one pre-trained checkpoint
// per model name (cloned out to every experiment).
type Lab struct {
	Scale Scale

	mu          sync.Mutex
	datasets    map[flowbench.Workflow]*flowbench.Dataset
	corpus      []string
	tok         *tokenizer.Tokenizer
	checkpoints map[string]*transformer.Model
}

// NewLab builds a lab at the given scale.
func NewLab(scale Scale) *Lab {
	return &Lab{
		Scale:       scale,
		datasets:    make(map[flowbench.Workflow]*flowbench.Dataset),
		checkpoints: make(map[string]*transformer.Model),
	}
}

// Dataset returns the subsampled dataset for a workflow, generating it on
// first use.
func (l *Lab) Dataset(wf flowbench.Workflow) *flowbench.Dataset {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.datasetLocked(wf)
}

func (l *Lab) datasetLocked(wf flowbench.Workflow) *flowbench.Dataset {
	if ds, ok := l.datasets[wf]; ok {
		return ds
	}
	full := flowbench.Generate(wf, l.Scale.Seed)
	ds := full.Subsample(l.Scale.Train, l.Scale.Val, l.Scale.Test, l.Scale.Seed+7)
	l.datasets[wf] = ds
	return ds
}

// Tokenizer returns the shared vocabulary, built once over the pre-training
// corpus plus the training sentences of all three workflows (so transfer
// experiments share token space).
func (l *Lab) Tokenizer() *tokenizer.Tokenizer {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ensureTokenizerLocked()
	return l.tok
}

func (l *Lab) ensureTokenizerLocked() {
	if l.tok != nil {
		return
	}
	var splits [][]flowbench.Job
	for _, wf := range flowbench.Workflows {
		splits = append(splits, l.datasetLocked(wf).Train)
	}
	// ICL documents are weighted heavily so decoders learn the prompt
	// format and in-context rule induction, not just sentence statistics.
	l.corpus, l.tok = pretrain.Vocabulary(pretrain.CorpusOptions{
		SentencesPerWorkflow: 300, ICLDocs: 500, ExamplesPerDoc: 5, Seed: l.Scale.Seed ^ 0xbeef,
	}, splits...)
}

// Corpus returns the pre-training corpus (building it if needed).
func (l *Lab) Corpus() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ensureTokenizerLocked()
	return l.corpus
}

// pretrained returns a fresh clone of the named model's pre-trained
// checkpoint, pre-training it on first use (pretrain.Run: MLM for encoders,
// CLM for decoders).
func (l *Lab) pretrained(name string) *transformer.Model {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, ok := l.checkpoints[name]; ok {
		return m.Clone()
	}
	l.ensureTokenizerLocked()
	spec := models.MustGet(name)
	m := spec.Build(l.tok.VocabSize())
	opts := pretrain.Options{Steps: l.Scale.PretrainSteps, LR: 3e-3, Seed: l.Scale.Seed ^ spec.Seed}
	if spec.Kind == models.Decoder {
		// Decoders need prompt-format fluency before in-context behaviour
		// emerges; give them a larger causal-LM budget than the encoders'
		// MLM budget.
		opts.Steps *= 4
	}
	pretrain.Run(m, l.tok, l.corpus, opts)
	l.checkpoints[name] = m
	return m.Clone()
}

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment identifier ("table1", "fig4", ...).
	ID string
	// Title describes the paper artifact being regenerated.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the data, one string per column.
	Rows [][]string
	// Notes carries free-form output (e.g. the Figure 13 CoT text) and
	// caveats.
	Notes []string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case float32:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}
