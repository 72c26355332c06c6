package metrics

import (
	"strconv"
	"strings"
	"testing"
)

func TestPromWriterBasic(t *testing.T) {
	var w PromWriter
	w.Gauge("repro_queue_len", "jobs queued", 3, "model", "default")
	w.Counter("repro_requests_total", "accepted requests", 120, "model", "default")
	w.Counter("repro_requests_total", "accepted requests", 7, "model", "alt")
	got := string(w.Bytes())

	want := strings.Join([]string{
		"# HELP repro_queue_len jobs queued",
		"# TYPE repro_queue_len gauge",
		`repro_queue_len{model="default"} 3`,
		"# HELP repro_requests_total accepted requests",
		"# TYPE repro_requests_total counter",
		`repro_requests_total{model="default"} 120`,
		`repro_requests_total{model="alt"} 7`,
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromWriterHeadersOncePerName(t *testing.T) {
	var w PromWriter
	w.Gauge("m", "h", 1, "a", "x")
	w.Gauge("m", "h", 2, "a", "y")
	if n := strings.Count(string(w.Bytes()), "# TYPE m gauge"); n != 1 {
		t.Fatalf("TYPE header emitted %d times, want 1", n)
	}
}

func TestPromWriterEscaping(t *testing.T) {
	var w PromWriter
	w.Gauge("m", "h", 1, "path", `a\b"c`+"\n")
	got := string(w.Bytes())
	if !strings.Contains(got, `m{path="a\\b\"c\n"} 1`) {
		t.Fatalf("label not escaped: %q", got)
	}
}

func TestPromWriterValueFormat(t *testing.T) {
	var w PromWriter
	w.Gauge("a", "h", 1234567890)
	w.Gauge("b", "h", 0.25)
	got := string(w.Bytes())
	if !strings.Contains(got, "a 1234567890\n") {
		t.Fatalf("integer value mangled: %q", got)
	}
	if !strings.Contains(got, "b 0.25\n") {
		t.Fatalf("float value mangled: %q", got)
	}
}

func TestPromWriterNoLabels(t *testing.T) {
	var w PromWriter
	w.Counter("up_total", "h", 5)
	if !strings.Contains(string(w.Bytes()), "up_total 5\n") {
		t.Fatalf("unlabeled sample mangled: %q", string(w.Bytes()))
	}
}

// FuzzPromWriterLabels pins label escaping as a round trip: any label value
// written through PromWriter keeps its sample on one line and unescapes back
// to itself under the exposition format's three escapes.
func FuzzPromWriterLabels(f *testing.F) {
	for _, v := range []string{"", "default", `a\b"c` + "\n", `\n`, "\\\n\"", "http://127.0.0.1:8091", "ü\x00\r"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		var w PromWriter
		w.Gauge("m", "h", 1, "l", v)
		lines := strings.Split(strings.TrimSuffix(string(w.Bytes()), "\n"), "\n")
		if len(lines) != 3 {
			t.Fatalf("label %q: exposition has %d lines, want HELP, TYPE and one sample:\n%s", v, len(lines), w.Bytes())
		}
		escaped, ok := strings.CutPrefix(lines[2], `m{l="`)
		if escaped, ok = strings.CutSuffix(escaped, `"} 1`); !ok {
			t.Fatalf("label %q: sample line %q", v, lines[2])
		}
		var got strings.Builder
		for i := 0; i < len(escaped); i++ {
			switch c := escaped[i]; {
			case c == '"':
				t.Fatalf("label %q: unescaped quote in %q", v, escaped)
			case c != '\\':
				got.WriteByte(c)
			case i+1 == len(escaped):
				t.Fatalf("label %q: trailing backslash in %q", v, escaped)
			default:
				i++
				switch escaped[i] {
				case '\\', '"':
					got.WriteByte(escaped[i])
				case 'n':
					got.WriteByte('\n')
				default:
					t.Fatalf("label %q: unknown escape \\%c in %q", v, escaped[i], escaped)
				}
			}
		}
		if got.String() != v {
			t.Fatalf("label %q came back as %q", v, got.String())
		}
	})
}

// TestPromWriterHistogram: buckets are cumulative and end at le="+Inf" equal
// to _count, and each family's # HELP and # TYPE histogram appear once.
func TestPromWriterHistogram(t *testing.T) {
	var a, b Histogram
	for _, v := range []float64{0.5, 2, 2, 40, 20000} {
		a.Observe(v)
	}
	b.Observe(7)
	var w PromWriter
	w.Histogram("lat_ms", "stage latency", &a, "stage", "compute")
	w.Histogram("lat_ms", "stage latency", &b, "stage", "queue_wait")
	w.Histogram("other_ms", "other latency", &b)
	got := string(w.Bytes())

	for _, name := range []string{"lat_ms", "other_ms"} {
		for _, header := range []string{"# HELP " + name + " ", "# TYPE " + name + " histogram\n"} {
			if n := strings.Count(got, header); n != 1 {
				t.Errorf("%q appears %d times, want 1", header, n)
			}
		}
	}
	prev, buckets := -1.0, 0
	var inf float64
	for _, line := range strings.Split(got, "\n") {
		rest, ok := strings.CutPrefix(line, `lat_ms_bucket{stage="compute",le="`)
		if !ok {
			continue
		}
		buckets++
		le, v, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("bucket le=%s holds %v, below the previous bucket's %v", le, n, prev)
		}
		prev = n
		if le == "+Inf" {
			inf = n
		}
	}
	if buckets != numBounds+1 || inf != 5 {
		t.Errorf("%d buckets ending at +Inf %v, want %d ending at 5", buckets, inf, numBounds+1)
	}
	for _, want := range []string{
		`lat_ms_count{stage="compute"} 5` + "\n",
		`lat_ms_sum{stage="compute"} 20044.5` + "\n",
		`lat_ms_bucket{stage="compute",le="2"} 3` + "\n",
		`lat_ms_bucket{stage="queue_wait",le="+Inf"} 1` + "\n",
		`other_ms_count 1` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition lacks %q:\n%s", want, got)
		}
	}
}
