// Command bench is the repository's one measurement spine: four workloads
// against the serving stack, twelve-second measured windows, end-to-end metrics
// with regression bounds (BENCHMARK.json) and, with --trace 1, a per-layer
// ladder and the counters each layer keeps under load. See README.md.
//
//	bash bench/run.sh --workload bulk-sft --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --noise a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported number. The names and units are the contract
// BENCHMARK.json states; metrics_test.go holds the two together.
type metric struct {
	name, unit string
	value      float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed: changes the generated requests and nothing else")
		seconds = flag.Int("seconds", 12, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced ladder and per-layer counters")
		noise   = flag.Bool("noise", false, "compare two files of result lines (see noise.sh) instead of running")
	)
	flag.Parse()
	if *noise {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench --noise first.jsonl second.jsonl")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	}
	w, found := lookupWorkload(*name)
	if !found {
		fatal(2, "unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(2, "--seconds must be at least 1 and --trace 0 or 1")
	}
	os.Exit(run(w, *seed, *seconds, *trace == 1))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// run is one benchmark invocation. It returns the process exit code: 0 for a
// valid run with correct outputs, 1 for wrong outputs, 3 for a run that
// measured the generator rather than the system.
func run(w workload, seed uint64, seconds int, trace bool) int {
	window := time.Duration(seconds) * time.Second
	client := newHTTPClient()
	defer client.CloseIdleConnections()

	start := time.Now()
	st, err := setUp(w, trace)
	if err != nil {
		fatal(2, "set-up: %v", err)
	}
	s := buildStream(w, seed, warmup+window)
	setupS := time.Since(start).Seconds()
	defer st.close()
	prov := newProvenance(w, seed, seconds, s.hash)
	header, _ := json.Marshal(prov)
	fmt.Printf("# %s\n", header)

	var lad *ladderResult
	host := hostFacts{setupPeakRSS: peakRSSMB()}
	if trace {
		host.fmaGflops, host.streamGBs = hostCeiling()
		if lad, err = st.ladder(s, client); err != nil {
			fatal(2, "ladder: %v", err)
		}
	}

	// Start the load from a settled heap, with what training left behind
	// returned to the OS, so that peak_rss_mb is the serving footprint.
	debug.FreeOSMemory()
	var ld loadResult
	for attempt := 1; ; attempt++ {
		ld = st.load(s, client, window)
		why := generatorFault(w, ld)
		if why == "" {
			break
		}
		// A load phase that measured the generator is never recorded: it is
		// run again, and the run is invalid only if every attempt was.
		fmt.Fprintf(os.Stderr, "bench: load attempt %d of %d discarded: %s\n", attempt, loadAttempts, why)
		if attempt == loadAttempts {
			return 3
		}
	}
	eng, err := engineStats(client, st.target)
	if err != nil {
		fatal(2, "engine stats: %v", err)
	}
	var gw []promSample
	if w.fleet {
		if gw, err = scrapeMetrics(client, st.target); err != nil {
			fatal(2, "gateway metrics: %v", err)
		}
	}
	v := st.verify(s, ld.outs)
	var rows []metric
	if trace {
		rows = perLayer(st, ld, lad, eng, gw, v, host)
		path, err := writeTrace(traceDir, prov, lad.spans)
		if err != nil {
			fatal(2, "write trace: %v", err)
		}
		fmt.Printf("# ladder: %d lines in %d requests, top layers by self time: %s; spans in %s\n",
			lad.lines, lad.requests, lad.topLayers(3), path)
	} else {
		rows = endToEnd(ld, v, setupS)
	}
	t := ld.meas
	fmt.Printf("# warm-up: sent %d ok %d failed %d | measured: sent %d ok %d failed %d (shed %d timeout %d server %d transport %d malformed %d)\n",
		ld.warm.sent, ld.warm.ok, ld.warm.failed(), t.sent, t.ok, t.failed(), t.shed, t.timeout, t.server, t.transport, t.bad)
	tail := supportedTail(len(t.latMs))
	fmt.Printf("# latency over %d answered requests: p50 %.3f ms, p%g %.3f ms (the highest percentile with ten samples beyond it); generator late p99 %.3f ms\n",
		len(t.latMs), percentile(t.latMs, 0.5), 100*tail, percentile(t.latMs, tail), percentile(t.lateMs, 0.99))
	for _, m := range rows {
		fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}

	code := 0
	for _, o := range v.offenders {
		fmt.Fprintf(os.Stderr, "bench: wrong output: %s\n", o)
		code = 1
	}
	if v.more > 0 {
		fmt.Fprintf(os.Stderr, "bench: ... and %d more\n", v.more)
	}
	out := resultLine{Correct: code == 0, Attempted: t.sent, Failed: t.failed(), Metrics: map[string]metricOut{}}
	for _, m := range rows {
		out.Metrics[m.name] = metricOut{m.value, m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Printf("%s\n", line)
	return code
}

// loadAttempts is how many times a run tries to get a load phase the
// generator kept up with. On a shared 2-core VM about one open-loop phase in
// fifty is starved by the host for tens of milliseconds at a stretch.
const loadAttempts = 3

// generatorFault is the generator-health guard of the open-loop workloads:
// a dispatcher that reaches requests later than lateLimit is starved, and the
// numbers describe the generator. Requests that found every sender busy are
// reported (gen.inflight_cap_hits) and not a fault: the dispatcher never waits
// for a sender, and their queueing is charged to their latency from the due
// instant like any other wait the system imposes.
func generatorFault(w workload, ld loadResult) string {
	if w.loop != openLoop {
		return ""
	}
	if late := percentile(ld.meas.lateMs, 0.99); late > ms(lateLimit) {
		return fmt.Sprintf("generator ran late: p99 of dispatched-due is %.3fms, limit %v", late, lateLimit)
	}
	return ""
}

// endToEnd computes what a user of the system sees. Every metric is defined
// on every workload and is never zero on a healthy run.
func endToEnd(ld loadResult, v *verification, setupS float64) []metric {
	t := ld.meas
	return []metric{
		{"setup_s", "s", setupS},
		{"lines_per_s", "lines/s", float64(t.lines) / ld.wall.Seconds()},
		{"p50_ms", "ms", percentile(t.latMs, 0.5)},
		{"slo_share", "share", share(t.withinSLO, t.sent)},
		{"ok_share", "share", share(t.ok, t.sent)},
		{"verdict_agree", "share", v.agree()},
		{"peak_rss_mb", "MB", ld.peakRSS},
	}
}

// traceDir is where --trace 1 writes its spans, relative to the repository
// root the command runs from.
const traceDir = "bench/out"
