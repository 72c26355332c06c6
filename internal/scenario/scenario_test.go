package scenario

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// tinyCfg keeps unit tests fast. Seed 6 is chosen so every scenario's
// 400-event prefix contains both classes (anomaly segments sit at random
// positions inside traces, so short prefixes of unlucky seeds can be all
// normal).
func tinyCfg() Config {
	return Config{Workflow: flowbench.Sales, Events: 400, Seed: 6, Rate: 2000}
}

func TestAllScenariosGenerate(t *testing.T) {
	defs := All()
	if len(defs) < 5 {
		t.Fatalf("need at least 5 scenarios, have %d", len(defs))
	}
	for _, d := range defs {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			s := d.Generate(tinyCfg())
			if len(s.Events) != 400 {
				t.Fatalf("got %d events, want 400", len(s.Events))
			}
			if s.Name != d.Name {
				t.Errorf("stream name %q, want %q", s.Name, d.Name)
			}
			last := s.Events[0].At
			anom := 0
			for i, ev := range s.Events {
				if ev.At < last {
					t.Fatalf("event %d: At %v < previous %v (schedule must be non-decreasing)", i, ev.At, last)
				}
				last = ev.At
				if got := logparse.LogLine(ev.Job); ev.Line != got {
					t.Fatalf("event %d: Line does not round-trip its Job", i)
				}
				anom += ev.Job.Label
			}
			if anom == 0 || anom == len(s.Events) {
				t.Errorf("stream has degenerate anomaly count %d/%d", anom, len(s.Events))
			}
			if s.Duration() <= 0 {
				t.Error("stream duration should be positive")
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("steady"); err != nil {
		t.Fatalf("Lookup(steady): %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup(nope): expected error")
	}
	if len(names()) != len(All()) {
		t.Error("names/All length mismatch")
	}
}

func TestBurstyHasSameInstantBursts(t *testing.T) {
	d, _ := Lookup("bursty")
	s := d.Generate(tinyCfg())
	best := 0
	run := 1
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At == s.Events[i-1].At {
			run++
		} else {
			run = 1
		}
		if run > best {
			best = run
		}
	}
	if best < 8 {
		t.Errorf("largest same-instant burst is %d lines, want >= 8", best)
	}
}

func TestNearDupEmitsDuplicates(t *testing.T) {
	d, _ := Lookup("near-dup")
	s := d.Generate(tinyCfg())
	exact, near := 0, 0
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At != s.Events[i-1].At {
			continue
		}
		a, b := s.Events[i-1], s.Events[i]
		if logparse.Sentence(a.Job) == logparse.Sentence(b.Job) {
			exact++
		} else if a.Job.TraceID == b.Job.TraceID && a.Job.NodeIndex == b.Job.NodeIndex {
			near++
		}
	}
	if exact == 0 {
		t.Error("near-dup stream has no same-instant exact duplicates")
	}
	if near == 0 {
		t.Error("near-dup stream has no same-instant near duplicates")
	}
}

func TestDriftHalvesDiffer(t *testing.T) {
	d, _ := Lookup("drift")
	s := d.Generate(tinyCfg())
	half := len(s.Events) / 2
	for i, ev := range s.Events[:half] {
		if ev.Job.Label != 0 {
			t.Fatalf("event %d in clean half has label %d", i, ev.Job.Label)
		}
	}
	anom := 0
	for _, ev := range s.Events[half:] {
		anom += ev.Job.Label
	}
	if anom == 0 {
		t.Error("drift second half has no anomalies")
	}
}

func TestLineHeavyTouchesMoreTraces(t *testing.T) {
	traces := func(name string) int {
		d, _ := Lookup(name)
		s := d.Generate(tinyCfg())
		seen := map[int]bool{}
		for _, ev := range s.Events {
			seen[ev.Job.TraceID] = true
		}
		return len(seen)
	}
	lh, th := traces("line-heavy"), traces("trace-heavy")
	if lh <= th {
		t.Errorf("line-heavy touched %d traces, trace-heavy %d; want line-heavy > trace-heavy", lh, th)
	}
}

// traceTruth applies policy to the ground-truth labels of the events each
// trace in s actually emitted, answering "would this trace be flagged under
// perfect per-line detection?" — the reference trace verdicts are checked
// against. Keys are trace IDs present in the stream.
func traceTruth(s *Stream, policy core.TracePolicy) map[int]bool {
	jobs := make(map[int]int)
	anom := make(map[int]int)
	for _, ev := range s.Events {
		jobs[ev.Job.TraceID]++
		anom[ev.Job.TraceID] += ev.Job.Label
	}
	out := make(map[int]bool, len(jobs))
	for id, n := range jobs {
		out[id] = policy.Flagged(n, anom[id])
	}
	return out
}

func TestTraceTruthUsesPolicy(t *testing.T) {
	d, _ := Lookup("steady")
	s := d.Generate(tinyCfg())
	truth := traceTruth(s, core.DefaultTracePolicy())
	if len(truth) == 0 {
		t.Fatal("no traces in truth map")
	}
	flagged := 0
	for _, v := range truth {
		if v {
			flagged++
		}
	}
	if flagged == 0 || flagged == len(truth) {
		t.Errorf("degenerate trace truth: %d/%d flagged", flagged, len(truth))
	}
	// Strict policy flags nothing.
	none := traceTruth(s, core.TracePolicy{MinAnomalous: 1 << 30, MinFraction: 1})
	for id, v := range none {
		if v {
			t.Fatalf("trace %d flagged under impossible policy", id)
		}
	}
}

func TestSentencesMatchServingInput(t *testing.T) {
	d, _ := Lookup("steady")
	s := d.Generate(tinyCfg())
	sents := s.Sentences()
	if len(sents) != len(s.Events) {
		t.Fatal("Sentences length mismatch")
	}
	for i, sent := range sents[:20] {
		if strings.Contains(sent, "label=") || strings.Contains(sent, "anomaly=") {
			t.Fatalf("sentence %d leaks ground truth: %q", i, sent)
		}
	}
}
