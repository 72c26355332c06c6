package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus what its child spans cover, summed per
// layer; siblings both count, grandchildren count against their own parent.
func TestSelfTime(t *testing.T) {
	msec := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Req: 0, Layer: "core.http", Start: 0, End: msec(10)},
		{ID: 1, Parent: 0, Req: 0, Layer: "logparse", Start: msec(10), End: msec(11)},
		{ID: 2, Parent: 0, Req: 0, Layer: "core.engine", Start: msec(11), End: msec(18)},
		{ID: 3, Parent: 2, Req: 0, Layer: "transformer", Start: msec(18), End: msec(23)},
		{ID: 4, Parent: 3, Req: 0, Layer: "tensor", Start: msec(23), End: msec(27)},
		// A second request adds to the same layers.
		{ID: 5, Parent: -1, Req: 1, Layer: "core.http", Start: msec(30), End: msec(36)},
		{ID: 6, Parent: 5, Req: 1, Layer: "core.engine", Start: msec(36), End: msec(41)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"core.http":   (10 - 1 - 7 + 6 - 5) * time.Millisecond,
		"logparse":    1 * time.Millisecond,
		"core.engine": (7 - 5 + 5) * time.Millisecond,
		"transformer": 1 * time.Millisecond,
		"tensor":      4 * time.Millisecond,
	}
	var sum time.Duration
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
		sum += got[layer]
	}
	// The shares telescope: self times add up to the outermost spans.
	if outer := 16 * time.Millisecond; sum != outer {
		t.Errorf("self times sum to %v, want the outermost %v", sum, outer)
	}
}

func TestNilRecorderRunsWithoutRecording(t *testing.T) {
	var rec *recorder
	ran := false
	if id := rec.time("x", "x", 0, -1, func() { ran = true }); id != -1 || !ran {
		t.Errorf("nil recorder returned span %d, ran %v", id, ran)
	}
}
