package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/flowbench"
)

// tiny returns a scale small enough for unit tests.
// tiny is the exported Tiny scale — the same recipe cmd/expbench -scale tiny
// runs, so these tests exercise exactly what CI smoke runs exercise.
func tiny() Scale { return Tiny() }

func TestRegistryCoversAllArtifacts(t *testing.T) {
	defs := All()
	if len(defs) != 20 {
		t.Fatalf("registry has %d experiments, want 20 (4 tables + 11 figures + 4 ablations + 1 extension)", len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.ID] {
			t.Fatalf("duplicate experiment id %q", d.ID)
		}
		seen[d.ID] = true
		if d.Run == nil {
			t.Fatalf("experiment %q has no runner", d.ID)
		}
	}
	for _, id := range []string{"table1", "table2", "table3", "table4", "fig4", "fig13"} {
		if !seen[id] {
			t.Fatalf("registry missing %q", id)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig4"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestLabDatasetCaching(t *testing.T) {
	l := NewLab(tiny())
	a := l.Dataset(flowbench.Genome)
	b := l.Dataset(flowbench.Genome)
	if a != b {
		t.Fatal("dataset not cached")
	}
	if len(a.Train) != 120 {
		t.Fatalf("train size %d", len(a.Train))
	}
}

func TestLabPretrainedCloning(t *testing.T) {
	l := NewLab(tiny())
	a := l.pretrained("distilbert-base-uncased")
	b := l.pretrained("distilbert-base-uncased")
	if a == b {
		t.Fatal("pretrained must return clones, not the cached model")
	}
	// Clones carry identical weights.
	ids := [][]int{{1, 2, 3}}
	if !a.ForwardClsBatchWS(ids, nil).Equal(b.ForwardClsBatchWS(ids, nil)) {
		t.Fatal("clones differ")
	}
	// Mutating one clone must not leak into subsequent clones.
	a.ClsHead.Weight.W.Data[0] += 10
	c := l.pretrained("distilbert-base-uncased")
	if a.ForwardClsBatchWS(ids, nil).Equal(c.ForwardClsBatchWS(ids, nil)) {
		t.Fatal("mutation leaked into cache")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tab.Add("v1", 0.5)
	tab.Add(123, "long-value")
	tab.Notes = append(tab.Notes, "a note")
	s := tab.String()
	if !strings.Contains(s, "== x: demo ==") {
		t.Fatalf("missing title: %s", s)
	}
	if !strings.Contains(s, "0.5000") {
		t.Fatalf("float not formatted: %s", s)
	}
	if !strings.Contains(s, "note: a note") {
		t.Fatalf("missing note: %s", s)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	l := NewLab(tiny())
	tab := l.table1()
	if len(tab.Rows) != 9 {
		t.Fatalf("table1 has %d rows, want 9", len(tab.Rows))
	}
	// Spot-check the first row against the paper's numbers.
	r := tab.Rows[0]
	if r[0] != "1000-genome" || r[1] != "train" || r[2] != "25911" || r[3] != "12558" {
		t.Fatalf("table1 row = %v", r)
	}
}

// TestFigure4ShapeAndDirection runs the flagship experiment at tiny scale on
// a subset of models and verifies the SFT > pretrain claim holds per row.
func TestFigure4ShapeAndDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	l := NewLab(tiny())
	tab := l.figure4()
	if len(tab.Rows) != 14 { // 12 encoders + MLP + GNN
		t.Fatalf("fig4 rows = %d", len(tab.Rows))
	}
	improved := 0
	for _, row := range tab.Rows[:12] {
		pre, err1 := strconv.ParseFloat(row[1], 64)
		post, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if post > pre {
			improved++
		}
	}
	// At tiny scale a couple of models may tie; the bulk must improve.
	if improved < 8 {
		t.Fatalf("SFT improved only %d/12 encoders", improved)
	}
}

func TestFigure7Timeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	l := NewLab(tiny())
	tab := l.figure7()
	if len(tab.Rows) != flowbench.NumFeatures {
		t.Fatalf("fig7 rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "T1" || !strings.HasPrefix(tab.Rows[0][1], "wms_delay is ") {
		t.Fatalf("fig7 first row = %v", tab.Rows[0])
	}
}

func TestTable4ContainsOOMRow(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	l := NewLab(tiny())
	tab := l.table4()
	found := false
	for _, row := range tab.Rows {
		if row[0] == "AnomalyDAE" {
			found = true
			if row[1] != "OOM" {
				t.Fatalf("AnomalyDAE row = %v, want OOM", row)
			}
		}
	}
	if !found {
		t.Fatal("table4 missing AnomalyDAE row")
	}
	// 5 unsupervised + 3 decoders × 2 = 11 rows.
	if len(tab.Rows) != 11 {
		t.Fatalf("table4 rows = %d, want 11", len(tab.Rows))
	}
}

func TestFigure13ProducesReasoning(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	l := NewLab(tiny())
	tab := l.figure13()
	if len(tab.Notes) < 2 {
		t.Fatal("fig13 missing prompt/output notes")
	}
	if !strings.Contains(tab.Notes[1], "step-by-step reasoning") {
		t.Fatalf("fig13 output note = %q", tab.Notes[1][:60])
	}
}
