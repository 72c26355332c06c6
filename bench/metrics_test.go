package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// BENCHMARK.json is the contract and this program the implementation: every
// workload and every metric one names, with its unit, the other must too.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var file struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, want []named, got []metric) {
		t.Helper()
		if len(want) != len(got) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(want), len(got))
		}
		units := map[string]string{}
		for _, m := range got {
			units[m.name] = m.unit
		}
		for _, m := range want {
			if unit, printed := units[m.Name]; !printed {
				t.Errorf("%s: %s is in BENCHMARK.json and never printed", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s is in %s in BENCHMARK.json and printed in %s", kind, m.Name, m.Unit, unit)
			}
		}
	}
	w := workloads[0]
	ld := loadResult{wall: time.Second}
	same("end_to_end", file.EndToEnd, endToEnd(ld, &verification{}, 1))
	lad := &ladderResult{self: map[string]time.Duration{}, ops: map[string]time.Duration{}}
	same("per_layer", file.PerLayer, perLayer(&stack{w: w}, ld, lad, core.EngineStats{}, nil, &verification{}, hostFacts{fmaGflops: 1, streamGBs: 1}))
}
