package metrics

import (
	"fmt"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) using only the standard library — the repo takes no
// client_golang dependency for what is a ~100-line text format. Every
// anomalyd replica and the anomalygw gateway serve a GET /metrics endpoint
// built on it, which is what lets the gateway's saturation view and a
// human's dashboards read the same numbers.
//
// Usage: one PromWriter per scrape. Gauge, Counter and Histogram append
// samples; the # HELP and # TYPE headers are emitted once per metric name, on
// first use, so callers may emit a labeled family in any grouping. Not safe
// for concurrent use.
type PromWriter struct {
	b      strings.Builder
	headed map[string]bool
}

// Gauge appends one gauge sample. labels are alternating key, value pairs.
func (w *PromWriter) Gauge(name, help string, v float64, labels ...string) {
	w.head(name, help, "gauge")
	w.line(name, v, labels)
}

// Counter appends one counter sample. By Prometheus convention the name
// should end in _total. labels are alternating key, value pairs.
func (w *PromWriter) Counter(name, help string, v float64, labels ...string) {
	w.head(name, help, "counter")
	w.line(name, v, labels)
}

// Histogram appends h as one histogram family: a cumulative name_bucket
// sample per bound and le="+Inf", then name_sum and name_count. Every
// Histogram has the same bounds, so two processes' buckets add up per le.
// labels are alternating key, value pairs.
func (w *PromWriter) Histogram(name, help string, h *Histogram, labels ...string) {
	w.head(name, help, "histogram")
	var cum uint64
	for i, le := range bucketBounds {
		cum += h.counts[i]
		w.line(name+"_bucket", float64(cum), append(labels, "le", formatValue(le)))
	}
	w.line(name+"_bucket", float64(h.count), append(labels, "le", "+Inf"))
	w.line(name+"_sum", h.sum, labels)
	w.line(name+"_count", float64(h.count), labels)
}

// head writes name's # HELP and # TYPE on its first use.
func (w *PromWriter) head(name, help, typ string) {
	if w.headed == nil {
		w.headed = make(map[string]bool)
	}
	if !w.headed[name] {
		w.headed[name] = true
		fmt.Fprintf(&w.b, "# HELP %s %s\n", name, escapeHelp(help))
		fmt.Fprintf(&w.b, "# TYPE %s %s\n", name, typ)
	}
}

// line writes one sample.
func (w *PromWriter) line(name string, v float64, labels []string) {
	w.b.WriteString(name)
	if len(labels) >= 2 {
		w.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(labels[i])
			w.b.WriteString(`="`)
			w.b.WriteString(escapeLabel(labels[i+1]))
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatValue(v))
	w.b.WriteByte('\n')
}

// Bytes returns the accumulated exposition body.
func (w *PromWriter) Bytes() []byte { return []byte(w.b.String()) }

// ContentType is the exposition format's Content-Type header value.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// formatValue renders a sample value: integers without an exponent or
// trailing zeros (counters read naturally), everything else via %g.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string: backslash and newline (quotes are legal).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
