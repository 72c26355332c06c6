package logparse

import (
	"strings"
	"testing"

	"repro/internal/flowbench"
)

func TestParseCSVRowRoundTrip(t *testing.T) {
	j := sampleJob()
	got, err := parseCSVRow(CSVRow(j))
	if err != nil {
		t.Fatal(err)
	}
	if got.Workflow != j.Workflow || got.TraceID != j.TraceID || got.NodeIndex != j.NodeIndex ||
		got.TaskType != j.TaskType || got.Label != j.Label || got.Anomaly != j.Anomaly {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, j)
	}
	for i := range j.Features {
		if diff := got.Features[i] - j.Features[i]; diff > 0.05 || diff < -0.05 {
			t.Fatalf("feature %d: %v vs %v", i, got.Features[i], j.Features[i])
		}
	}
}

func TestParseCSVRowErrors(t *testing.T) {
	cases := []string{
		"too,few,columns",
		strings.Replace(CSVRow(sampleJob()), "7", "x", 1),      // bad trace
		strings.Replace(CSVRow(sampleJob()), "cpu_2", "zz", 1), // bad anomaly
	}
	for _, c := range cases {
		if _, err := parseCSVRow(c); err == nil {
			t.Errorf("parseCSVRow(%q): expected error", c)
		}
	}
}

func TestReadCSVRoundTrip(t *testing.T) {
	ds := flowbench.Generate(flowbench.Genome, 1).Subsample(40, 1, 1, 2)
	var sb strings.Builder
	sb.WriteString(CSVHeader())
	sb.WriteByte('\n')
	for _, j := range ds.Train {
		sb.WriteString(CSVRow(j))
		sb.WriteByte('\n')
	}
	jobs, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 40 {
		t.Fatalf("read %d jobs, want 40", len(jobs))
	}
	for i, j := range jobs {
		if j.Label != ds.Train[i].Label || j.TraceID != ds.Train[i].TraceID {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("not,a,header\n")); err == nil {
		t.Fatal("expected header error")
	}
}

func TestReadCSVReportsLineNumber(t *testing.T) {
	doc := CSVHeader() + "\n" + "garbage row\n"
	_, err := ReadCSV(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}
