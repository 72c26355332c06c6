package main

import (
	"testing"
	"time"
)

// The seed decides the inputs and nothing else does.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := lookupWorkload("interactive-sft")
	span := 300 * time.Millisecond
	a, again, b := buildStream(w, 7, span), buildStream(w, 7, span), buildStream(w, 8, span)
	if a.hash != again.hash {
		t.Errorf("same seed, different streams: %s vs %s", a.hash, again.hash)
	}
	if a.hash == b.hash {
		t.Errorf("seeds 7 and 8 gave the same stream %s", a.hash)
	}
	// The fleet drives the identical stream: only the path through differs.
	fleet, _ := lookupWorkload("fleet-interactive")
	if f := buildStream(fleet, 7, span); f.hash != a.hash {
		t.Errorf("fleet-interactive stream %s differs from interactive-sft %s", f.hash, a.hash)
	}
}

func TestInteractiveStreamShape(t *testing.T) {
	w, _ := lookupWorkload("interactive-sft")
	span := 2 * time.Second
	s := buildStream(w, 3, span)
	lines, repeats := 0, 0
	recent := map[string]time.Duration{} // sentence → when it was last due
	var prev time.Duration
	for _, r := range s.reqs {
		if r.due < prev || r.due >= span {
			t.Fatalf("request due %v after one due %v (span %v)", r.due, prev, span)
		}
		prev = r.due
		if r.kind == kindSingle && r.n != 1 || r.kind == kindBatch && (r.n < 1 || r.n > burstMax) {
			t.Fatalf("request of kind %d carries %d lines", r.kind, r.n)
		}
		for _, l := range s.lines[r.first : r.first+r.n] {
			lines++
			if at, seen := recent[l.sentence]; seen && r.due-at <= echoWindow {
				repeats++
			}
			recent[l.sentence] = r.due
		}
	}
	if got := float64(repeats) / float64(lines); got < 0.1 || got > 0.3 {
		t.Errorf("%.0f%% of %d lines repeat a line sent within %v, want about 20%%", 100*got, lines, echoWindow)
	}
	if rate := float64(len(s.reqs)) / span.Seconds(); rate < w.rate || rate > 1.5*w.rate {
		t.Errorf("%.0f requests/s for a base arrival rate of %.0f (echoes add up to a quarter)", rate, w.rate)
	}
}

func TestBulkStreamNeverRepeatsASentence(t *testing.T) {
	w, _ := lookupWorkload("bulk-sft")
	s := buildStream(w, 5, 0)
	if len(s.reqs) != w.requests {
		t.Fatalf("%d requests, want %d", len(s.reqs), w.requests)
	}
	seen := make(map[string]bool, len(s.lines))
	for _, l := range s.lines {
		if seen[l.sentence] {
			t.Fatalf("sentence generated twice: %q", l.sentence)
		}
		seen[l.sentence] = true
	}
}
