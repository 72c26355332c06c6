package experiments

import (
	"fmt"
	"sort"
)

// Def registers one regenerable paper artifact.
type Def struct {
	// ID is the command-line identifier ("table1", "fig4", ...).
	ID string
	// Paper names the artifact in the paper.
	Paper string
	// Run regenerates the artifact at the lab's scale.
	Run func(l *Lab) *Table
}

// All lists every experiment in the paper's presentation order.
func All() []Def {
	return []Def{
		{"table1", "Table I — dataset statistics", (*Lab).table1},
		{"fig4", "Figure 4 — pretrain vs SFT accuracy", (*Lab).figure4},
		{"fig5", "Figure 5 — training time vs parameters", (*Lab).figure5},
		{"fig6", "Figure 6 — validation scores vs epochs", (*Lab).figure6},
		{"fig7", "Figure 7 — online detection example", (*Lab).figure7},
		{"fig8", "Figure 8 — early detection histogram", (*Lab).figure8},
		{"fig9", "Figure 9 — debiasing augmentation", (*Lab).figure9},
		{"fig10", "Figure 10 — SFT transfer matrix", (*Lab).figure10},
		{"fig11", "Figure 11 — transfer fine-tuning curve", (*Lab).figure11},
		{"table2", "Table II — parameter freezing", (*Lab).table2},
		{"table3", "Table III — ICL with LoRA", (*Lab).table3},
		{"fig12", "Figure 12 — examples in prompt", (*Lab).figure12},
		{"table4", "Table IV — zero-shot vs unsupervised", (*Lab).table4},
		{"fig13", "Figure 13 — chain-of-thought", (*Lab).figure13},
		{"fig14", "Figure 14 — ICL transfer matrix", (*Lab).figure14},
		{"abl-pretrain", "Ablation — SFT accuracy vs pre-training budget", (*Lab).ablationPretrain},
		{"abl-lora-rank", "Ablation — LoRA rank sweep", (*Lab).ablationLoRARank},
		{"abl-quant", "Ablation — 4-bit quantization vs fp32", (*Lab).ablationQuantization},
		{"abl-debias", "Ablation — debias augmentation cost", (*Lab).ablationDebias},
		{"ext-types", "Extension — anomaly-type classification", (*Lab).extensionAnomalyTypes},
	}
}

// ids returns the sorted experiment identifiers.
func ids() []string {
	defs := All()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.ID
	}
	sort.Strings(out)
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Def, error) {
	for _, d := range All() {
		if d.ID == id {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ids())
}
