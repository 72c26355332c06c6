package logparse

import (
	"strings"
	"testing"

	"repro/internal/flowbench"
)

func sampleJob() flowbench.Job {
	j := flowbench.Job{
		Workflow:  flowbench.Genome,
		TraceID:   7,
		NodeIndex: 12,
		TaskType:  "individuals",
		Label:     1,
		Anomaly:   flowbench.CPU2,
	}
	for i := range j.Features {
		j.Features[i] = float64(i+1) * 10.5
	}
	return j
}

func TestSentenceTemplate(t *testing.T) {
	j := sampleJob()
	s := Sentence(j)
	// Must follow "<feat> is <val>" for every feature, in order.
	for _, name := range flowbench.FeatureNames {
		if !strings.Contains(s, name+" is ") {
			t.Fatalf("sentence missing %q: %s", name, s)
		}
	}
	if strings.Contains(s, LabelAbnormal) {
		t.Fatal("unlabelled sentence contains label word")
	}
	if !strings.HasPrefix(s, "wms_delay is 10.5") {
		t.Fatalf("sentence = %q", s)
	}
}

func TestSentenceWithLabel(t *testing.T) {
	j := sampleJob()
	s := SentenceWithLabel(j)
	if !strings.HasSuffix(s, ", "+LabelAbnormal) {
		t.Fatalf("labelled sentence = %q", s)
	}
	j.Label = 0
	if !strings.HasSuffix(SentenceWithLabel(j), ", "+LabelNormal) {
		t.Fatal("normal label suffix wrong")
	}
}

func TestPrefixClamping(t *testing.T) {
	j := sampleJob()
	if Prefix(j, 0) != "" {
		t.Fatal("prefix(0) must be empty")
	}
	if Prefix(j, -3) != "" {
		t.Fatal("negative prefix must clamp to empty")
	}
	if Prefix(j, 100) != Sentence(j) {
		t.Fatal("oversized prefix must clamp to full sentence")
	}
	p2 := Prefix(j, 2)
	if !strings.Contains(p2, "wms_delay") || !strings.Contains(p2, "queue_delay") || strings.Contains(p2, "runtime") {
		t.Fatalf("prefix(2) = %q", p2)
	}
}

func TestPrefixGrowsMonotonically(t *testing.T) {
	j := sampleJob()
	for k := 1; k <= flowbench.NumFeatures; k++ {
		if !strings.HasPrefix(Prefix(j, k), Prefix(j, k-1)) {
			t.Fatalf("prefix(%d) does not extend prefix(%d)", k, k-1)
		}
	}
}

func TestFormatValue(t *testing.T) {
	if got := FormatValue(6); got != "6.0" {
		t.Fatalf("FormatValue(6) = %q", got)
	}
	if got := FormatValue(2090.04); got != "2090.0" {
		t.Fatalf("FormatValue(2090.04) = %q", got)
	}
	if got := FormatValue(2.5e8); got != "250000000" {
		t.Fatalf("FormatValue(2.5e8) = %q", got)
	}
}

func TestLabelWord(t *testing.T) {
	if LabelWord(0) != "normal" || LabelWord(1) != "abnormal" {
		t.Fatal("label words wrong")
	}
}

func TestLogLineRoundTrip(t *testing.T) {
	j := sampleJob()
	line := LogLine(j)
	got, err := ParseLogLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workflow != j.Workflow || got.TraceID != j.TraceID || got.NodeIndex != j.NodeIndex ||
		got.TaskType != j.TaskType || got.Label != j.Label || got.Anomaly != j.Anomaly {
		t.Fatalf("round trip metadata mismatch: %+v vs %+v", got, j)
	}
	for i := range j.Features {
		// Values round-trip through FormatValue's precision.
		if diff := got.Features[i] - j.Features[i]; diff > 0.05 || diff < -0.05 {
			t.Fatalf("feature %d: %v vs %v", i, got.Features[i], j.Features[i])
		}
	}
}

func TestParseLogLineErrors(t *testing.T) {
	cases := []string{
		"nokey",                // malformed field
		"trace=abc",            // bad int
		"label=7",              // bad label
		"anomaly=volcano",      // unknown anomaly
		"runtime=not_a_number", // bad float
	}
	for _, c := range cases {
		if _, err := ParseLogLine(c); err == nil {
			t.Errorf("ParseLogLine(%q): expected error", c)
		}
	}
}

func TestParseLogLineIgnoresUnknownKeys(t *testing.T) {
	j, err := ParseLogLine("wf=montage host=worker3 runtime=5.0")
	if err != nil {
		t.Fatal(err)
	}
	if j.Workflow != flowbench.Montage || j.Features[flowbench.FRuntime] != 5.0 {
		t.Fatalf("parsed %+v", j)
	}
}

func TestCSVRowMatchesHeader(t *testing.T) {
	header := CSVHeader()
	row := CSVRow(sampleJob())
	if strings.Count(header, ",") != strings.Count(row, ",") {
		t.Fatalf("column count mismatch:\n%s\n%s", header, row)
	}
	if !strings.HasPrefix(header, "workflow,trace,node,task,wms_delay") {
		t.Fatalf("header = %s", header)
	}
}

func TestCorpusSortedAndComplete(t *testing.T) {
	ds := flowbench.Generate(flowbench.Genome, 1).Subsample(50, 1, 1, 2)
	corpus := Corpus(ds.Train)
	if len(corpus) != 50 {
		t.Fatalf("corpus size %d", len(corpus))
	}
	for i := 1; i < len(corpus); i++ {
		if corpus[i] < corpus[i-1] {
			t.Fatal("corpus not sorted")
		}
	}
	for _, s := range corpus {
		if !strings.Contains(s, " , normal") && !strings.Contains(s, " , abnormal") {
			t.Fatalf("corpus sentence missing label: %q", s)
		}
	}
}

// TestParseLogLineAllocations pins the monitor's per-line parse at one
// allocation, the field slice: the name lookups read package tables instead
// of building two maps per line.
func TestParseLogLineAllocations(t *testing.T) {
	line := LogLine(sampleJob())
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseLogLine(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ParseLogLine allocates %v times per line, want ≤ 1", allocs)
	}
}
