package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// ablationIDs pins the registry's ablation/extension grid: the experiments
// beyond the paper's artifacts, in registry order. Adding or removing one is
// a conscious, test-visible act.
var ablationIDs = []string{"abl-pretrain", "abl-lora-rank", "abl-quant", "abl-debias", "ext-types"}

func TestAblationRegistryGridPinned(t *testing.T) {
	var got []string
	for _, d := range All() {
		if strings.HasPrefix(d.ID, "abl-") || strings.HasPrefix(d.ID, "ext-") {
			got = append(got, d.ID)
		}
	}
	if len(got) != len(ablationIDs) {
		t.Fatalf("registry has ablations %v, want %v", got, ablationIDs)
	}
	for i, id := range ablationIDs {
		if got[i] != id {
			t.Fatalf("registry ablation order %v, want %v", got, ablationIDs)
		}
	}
	for _, id := range ablationIDs {
		d, err := Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", id, err)
		}
		if d.Run == nil {
			t.Errorf("%s has no Run function", id)
		}
		if !strings.Contains(d.Paper, "Ablation") && !strings.Contains(d.Paper, "Extension") {
			t.Errorf("%s is labeled %q, expected an ablation/extension caption", id, d.Paper)
		}
	}
}

// TestAblationDebiasTiny runs the cheapest full ablation end to end at tiny
// scale: two SFT trainings plus bias probes, a few seconds. It pins the
// table's shape and value ranges.
func TestAblationDebiasTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation training run skipped in -short")
	}
	l := NewLab(tiny())
	tab := l.ablationDebias()
	if tab.ID != "abl-debias" {
		t.Fatalf("table ID %q", tab.ID)
	}
	wantHeader := []string{"augmentation", "test_acc", "empty_input_gap"}
	if len(tab.Header) != len(wantHeader) {
		t.Fatalf("header %v, want %v", tab.Header, wantHeader)
	}
	for i, h := range wantHeader {
		if tab.Header[i] != h {
			t.Fatalf("header %v, want %v", tab.Header, wantHeader)
		}
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows, want 2 (none / empty-sentence)", len(tab.Rows))
	}
	if tab.Rows[0][0] != "none" || tab.Rows[1][0] != "empty-sentence (40)" {
		t.Errorf("augmentation names wrong: %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		acc, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("test_acc cell %q not numeric: %v", row[1], err)
		}
		if acc < 0 || acc > 1 {
			t.Errorf("test_acc %v out of [0,1]", acc)
		}
		gap, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("empty_input_gap cell %q not numeric: %v", row[2], err)
		}
		if gap < 0 {
			t.Errorf("bias gap %v negative (should be absolute)", gap)
		}
	}
}

// TestExtensionAnomalyTypesTiny exercises the 3-way classification extension
// — the only multi-class path in the suite — at tiny scale.
func TestExtensionAnomalyTypesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("extension training run skipped in -short")
	}
	sc := tiny()
	l := NewLab(sc)
	tab := l.extensionAnomalyTypes()
	if tab.ID != "ext-types" {
		t.Fatalf("table ID %q", tab.ID)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows, want 2 (distilbert / bert)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for col := 1; col < len(row); col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("cell %q not numeric: %v", row[col], err)
			}
			if v < 0 || v > 1 {
				t.Errorf("%s cell %d = %v out of [0,1]", row[0], col, v)
			}
		}
	}
}
