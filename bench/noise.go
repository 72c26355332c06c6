package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readSet reads "workload<TAB>result line" rows, as noise.sh writes them,
// into workload → metric → values.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, body, found := strings.Cut(sc.Text(), "\t")
		if !found {
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a %s run reported wrong outputs", path, name)
		}
		if set[name] == nil {
			set[name] = map[string][]float64{}
		}
		for m, v := range r.Metrics {
			set[name][m] = append(set[name][m], v.Value)
		}
	}
	return set, sc.Err()
}

// compareSets is the noise floor made executable: two sets of runs of the
// same code, each of several seeds per workload. For every end-to-end metric
// it prints both medians, how much worse the second is, each set's
// interquartile spread as a share of its median, and the metric's bound — and
// fails if a spread (setup_s excepted) or the gap exceeds the bound, which is
// the rule the benchmark is accepted by. Per-layer metrics found in the files
// are listed without a verdict: they have no bound.
func compareSets(first, second string) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(2, "%v (run from the repository root, as bench/run.sh does)", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fatal(2, "BENCHMARK.json: %v", err)
	}
	a, err := readSet(first)
	if err != nil {
		fatal(2, "%v", err)
	}
	b, err := readSet(second)
	if err != nil {
		fatal(2, "%v", err)
	}
	bounded := map[string]bool{}
	failures := 0
	fmt.Printf("%-18s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			bounded[m.Name] = true
			va, vb := a[w.name][m.Name], b[w.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, sa := spread(va)
			mb, sb := spread(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "  EXCEEDS"
				failures++
			}
			fmt.Printf("%-18s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				w.name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	for _, w := range workloads {
		for _, name := range sortedNames(a[w.name]) {
			if bounded[name] || len(b[w.name][name]) == 0 {
				continue
			}
			ma, sa := spread(a[w.name][name])
			mb, sb := spread(b[w.name][name])
			fmt.Printf("%-18s %-36s %12.5g %12.5g %7.1f%% %7.1f%%\n", w.name, name, ma, mb, 100*sa, 100*sb)
		}
	}
	if failures > 0 {
		fmt.Printf("%d end-to-end metric(s) moved or spread beyond their own bound on unchanged code\n", failures)
		return 1
	}
	return 0
}

// sortedNames is the order maps are printed in.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
