// Package logparse converts between the three representations of a workflow
// job used in the paper's pipeline (Figure 2):
//
//	raw log line  →  tabular record  →  natural-language sentence
//
// Sentences follow the template `<FEAT_1> is <VAL_1> ... <FEAT_n> is
// <VAL_n>`, optionally suffixed with `, <LABEL>` for supervised fine-tuning
// data. Prefix sentences over the first k features implement the online
// detection setting of Figures 7 and 8.
package logparse

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/flowbench"
)

// Label words used in sentences and prompts.
const (
	LabelNormal   = "normal"
	LabelAbnormal = "abnormal"
)

// LabelWord returns the sentence label word for a 0/1 label.
func LabelWord(label int) string {
	if label == 1 {
		return LabelAbnormal
	}
	return LabelNormal
}

// FormatValue renders a feature value the way the paper's examples do
// (e.g. "6.0", "2090.0"). Byte counters are rendered without decimals.
func FormatValue(v float64) string {
	if v >= 1e6 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}

// Sentence renders the full feature sentence for a job (no label).
func Sentence(j flowbench.Job) string {
	return Prefix(j, flowbench.NumFeatures)
}

// SentenceWithLabel renders the Figure 2 training sentence
// `<features>, <LABEL>`.
func SentenceWithLabel(j flowbench.Job) string {
	return Sentence(j) + " , " + LabelWord(j.Label)
}

// Prefix renders the sentence over only the first k features in arrival
// order — the partial information available mid-execution for online
// detection. k is clamped to [0, NumFeatures].
func Prefix(j flowbench.Job, k int) string {
	if k < 0 {
		k = 0
	}
	if k > flowbench.NumFeatures {
		k = flowbench.NumFeatures
	}
	var sb strings.Builder
	for i := 0; i < k; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(flowbench.FeatureNames[i])
		sb.WriteString(" is ")
		sb.WriteString(FormatValue(j.Features[i]))
	}
	return sb.String()
}

// ParseSentence parses a feature sentence (the Sentence/Prefix format,
// `<FEAT_1> is <VAL_1> <FEAT_2> is <VAL_2> ...`) back into a Job carrying
// only the feature vector — the inverse of Sentence up to FormatValue's
// rendering precision. Metadata (workflow, trace identity, label) does not
// appear in sentences and stays zero. Features absent from the sentence (a
// Prefix over k < NumFeatures) are zero; unknown feature names or malformed
// triples are errors. The brownout tier uses this to score detect-endpoint
// traffic with the numeric seed baselines.
func ParseSentence(s string) (flowbench.Job, error) {
	var j flowbench.Job
	fields := strings.Fields(s)
	if len(fields)%3 != 0 {
		return j, fmt.Errorf("logparse: sentence is not `<feature> is <value>` triples: %q", s)
	}
	featIdx := make(map[string]int, flowbench.NumFeatures)
	for i, n := range flowbench.FeatureNames {
		featIdx[n] = i
	}
	for i := 0; i < len(fields); i += 3 {
		idx, ok := featIdx[fields[i]]
		if !ok {
			return j, fmt.Errorf("logparse: unknown feature %q", fields[i])
		}
		if fields[i+1] != "is" {
			return j, fmt.Errorf("logparse: expected %q after %q, got %q", "is", fields[i], fields[i+1])
		}
		v, err := strconv.ParseFloat(fields[i+2], 64)
		if err != nil {
			return j, fmt.Errorf("logparse: bad value for %s: %q", fields[i], fields[i+2])
		}
		j.Features[idx] = v
	}
	return j, nil
}

// featIdx maps feature names to their index and anomalyByName class names
// to their class. Both are built once and only read after, so the parsers
// look names up without per-call map builds.
var (
	featIdx = func() map[string]int {
		m := make(map[string]int, flowbench.NumFeatures)
		for i, n := range flowbench.FeatureNames {
			m[n] = i
		}
		return m
	}()
	anomalyByName = func() map[string]flowbench.AnomalyClass {
		m := map[string]flowbench.AnomalyClass{flowbench.None.String(): flowbench.None}
		for _, a := range flowbench.AnomalyClasses {
			m[a.String()] = a
		}
		return m
	}()
)

// isSentenceSpace matches the whitespace Sentence/Prefix emit (and the
// strings.Fields superset ParseSentence accepts for ASCII input).
func isSentenceSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// ScanSentence is ParseSentence's zero-allocation twin: it parses a feature
// sentence into feats (resetting it first) and reports whether the sentence
// was well formed. The cascade's stage-1 scoring path calls this per log
// line, so it must not allocate; unparseable lines return false and are
// passed through to the transformer rather than gated.
//
//repro:hotpath
func ScanSentence(s string, feats *[flowbench.NumFeatures]float64) bool {
	for i := range feats {
		feats[i] = 0
	}
	idx := -1
	field := 0 // position within the current `<feature> is <value>` triple
	pos := 0
	for pos < len(s) {
		for pos < len(s) && isSentenceSpace(s[pos]) {
			pos++
		}
		if pos == len(s) {
			break
		}
		start := pos
		for pos < len(s) && !isSentenceSpace(s[pos]) {
			pos++
		}
		tok := s[start:pos]
		switch field {
		case 0:
			i, known := featIdx[tok]
			if !known {
				return false
			}
			idx = i
		case 1:
			if tok != "is" {
				return false
			}
		default:
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return false
			}
			feats[idx] = v
		}
		field = (field + 1) % 3
	}
	return field == 0
}

// LogLine renders a job as a raw key=value log entry, the format produced by
// the workflow management system before parsing.
func LogLine(j flowbench.Job) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "wf=%s trace=%d node=%d task=%s", j.Workflow, j.TraceID, j.NodeIndex, j.TaskType)
	for i, name := range flowbench.FeatureNames {
		fmt.Fprintf(&sb, " %s=%s", name, FormatValue(j.Features[i]))
	}
	fmt.Fprintf(&sb, " label=%d anomaly=%s", j.Label, j.Anomaly)
	return sb.String()
}

// ParseLogLine parses a LogLine-formatted entry back into a Job. Unknown
// keys are ignored; missing features are zero.
func ParseLogLine(line string) (flowbench.Job, error) {
	var j flowbench.Job
	for _, f := range strings.Fields(line) {
		eq := strings.IndexByte(f, '=')
		if eq < 0 {
			return j, fmt.Errorf("logparse: malformed field %q", f)
		}
		key, val := f[:eq], f[eq+1:]
		switch key {
		case "wf":
			j.Workflow = flowbench.Workflow(val)
		case "trace":
			n, err := strconv.Atoi(val)
			if err != nil {
				return j, fmt.Errorf("logparse: bad trace %q", val)
			}
			j.TraceID = n
		case "node":
			n, err := strconv.Atoi(val)
			if err != nil {
				return j, fmt.Errorf("logparse: bad node %q", val)
			}
			j.NodeIndex = n
		case "task":
			j.TaskType = val
		case "label":
			n, err := strconv.Atoi(val)
			if err != nil || (n != 0 && n != 1) {
				return j, fmt.Errorf("logparse: bad label %q", val)
			}
			j.Label = n
		case "anomaly":
			a, ok := anomalyByName[val]
			if !ok {
				return j, fmt.Errorf("logparse: unknown anomaly %q", val)
			}
			j.Anomaly = a
		default:
			if idx, ok := featIdx[key]; ok {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return j, fmt.Errorf("logparse: bad value for %s: %q", key, val)
				}
				j.Features[idx] = v
			}
		}
	}
	return j, nil
}

// CSVHeader returns the column header of the tabular representation.
func CSVHeader() string {
	cols := append([]string{"workflow", "trace", "node", "task"}, flowbench.FeatureNames...)
	cols = append(cols, "label", "anomaly")
	return strings.Join(cols, ",")
}

// CSVRow renders a job as one CSV row matching CSVHeader.
func CSVRow(j flowbench.Job) string {
	cols := []string{string(j.Workflow), strconv.Itoa(j.TraceID), strconv.Itoa(j.NodeIndex), j.TaskType}
	for _, v := range j.Features {
		cols = append(cols, FormatValue(v))
	}
	cols = append(cols, strconv.Itoa(j.Label), j.Anomaly.String())
	return strings.Join(cols, ",")
}

// parseCSVRow parses one CSVRow-formatted line back into a Job.
func parseCSVRow(line string) (flowbench.Job, error) {
	var j flowbench.Job
	cols := strings.Split(line, ",")
	want := 4 + flowbench.NumFeatures + 2
	if len(cols) != want {
		return j, fmt.Errorf("logparse: csv row has %d columns, want %d", len(cols), want)
	}
	j.Workflow = flowbench.Workflow(cols[0])
	trace, err := strconv.Atoi(cols[1])
	if err != nil {
		return j, fmt.Errorf("logparse: bad trace %q", cols[1])
	}
	j.TraceID = trace
	node, err := strconv.Atoi(cols[2])
	if err != nil {
		return j, fmt.Errorf("logparse: bad node %q", cols[2])
	}
	j.NodeIndex = node
	j.TaskType = cols[3]
	for i := 0; i < flowbench.NumFeatures; i++ {
		v, err := strconv.ParseFloat(cols[4+i], 64)
		if err != nil {
			return j, fmt.Errorf("logparse: bad %s value %q", flowbench.FeatureNames[i], cols[4+i])
		}
		j.Features[i] = v
	}
	label, err := strconv.Atoi(cols[4+flowbench.NumFeatures])
	if err != nil || (label != 0 && label != 1) {
		return j, fmt.Errorf("logparse: bad label %q", cols[4+flowbench.NumFeatures])
	}
	j.Label = label
	anomCol := cols[4+flowbench.NumFeatures+1]
	found := false
	for _, a := range append([]flowbench.AnomalyClass{flowbench.None}, flowbench.AnomalyClasses...) {
		if a.String() == anomCol {
			j.Anomaly = a
			found = true
			break
		}
	}
	if !found {
		return j, fmt.Errorf("logparse: unknown anomaly %q", anomCol)
	}
	return j, nil
}

// ReadCSV parses a CSVHeader+rows document (as written by cmd/flowgen) into
// jobs.
func ReadCSV(r io.Reader) ([]flowbench.Job, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var jobs []flowbench.Job
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if lineNo == 1 {
			if line != CSVHeader() {
				return nil, fmt.Errorf("logparse: unexpected csv header %q", line)
			}
			continue
		}
		if line == "" {
			continue
		}
		j, err := parseCSVRow(line)
		if err != nil {
			return nil, fmt.Errorf("logparse: line %d: %w", lineNo, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, scanner.Err()
}

// Corpus renders the labelled sentences of jobs (used to build tokenizer
// vocabularies and pre-training corpora). The output is sorted for
// determinism when jobs come from map iteration.
func Corpus(jobs []flowbench.Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = SentenceWithLabel(j)
	}
	sort.Strings(out)
	return out
}
