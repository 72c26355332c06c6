package logparse

import (
	"strings"
	"testing"

	"repro/internal/flowbench"
)

// seedJob renders one synthetic job through render for use as a seed input.
func seedJob(render func(flowbench.Job) string) string {
	var j flowbench.Job
	j.Workflow = flowbench.Workflow("montage")
	j.TraceID = 7
	j.NodeIndex = 3
	j.TaskType = "mProject"
	for i := range j.Features {
		j.Features[i] = float64(i) * 1.5
	}
	j.Label = 1
	j.Anomaly = flowbench.AnomalyClasses[0]
	return render(j)
}

// FuzzScanSentence checks that the sentence grammar never panics and that
// the Sentence rendering of anything it accepts is accepted again.
func FuzzScanSentence(f *testing.F) {
	f.Add(seedJob(Sentence))
	f.Add("cpu_usage is 0.5")
	f.Add("cpu_usage is NaN")
	f.Add("not a sentence")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		var j flowbench.Job
		if !ScanSentence(s, &j.Features) {
			return
		}
		if again := Sentence(j); !ScanSentence(again, &j.Features) {
			t.Fatalf("accepted sentence %q renders to unparseable %q", s, again)
		}
	})
}

// FuzzParseLogLine checks the key=value log grammar the same way.
func FuzzParseLogLine(f *testing.F) {
	f.Add(seedJob(LogLine))
	f.Add("wf=montage trace=1 node=0 task=x label=0 anomaly=none")
	f.Add("wf= trace=zz")
	f.Add("= = =")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		j, err := ParseLogLine(line)
		if err != nil {
			return
		}
		if _, err := ParseLogLine(LogLine(j)); err != nil {
			t.Fatalf("accepted line %q renders to unparseable %q: %v", line, LogLine(j), err)
		}
	})
}

// FuzzParseCSVRow checks the CSV grammar, including the full-document reader
// over a header plus the row.
func FuzzParseCSVRow(f *testing.F) {
	f.Add(seedJob(CSVRow))
	f.Add(strings.Repeat(",", 4+flowbench.NumFeatures+1))
	f.Add("a,b,c")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		j, err := parseCSVRow(line)
		if err != nil {
			return
		}
		if _, err := parseCSVRow(CSVRow(j)); err != nil {
			t.Fatalf("accepted row %q renders to unparseable %q: %v", line, CSVRow(j), err)
		}
		doc := CSVHeader() + "\n" + CSVRow(j) + "\n"
		jobs, err := ReadCSV(strings.NewReader(doc))
		if err != nil || len(jobs) != 1 {
			t.Fatalf("ReadCSV over accepted row failed: %v (%d jobs)", err, len(jobs))
		}
	})
}
