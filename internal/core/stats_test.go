package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestEngineStatsCounters drives requests through a registry and checks the
// serving counters: request/sentence totals, batch accounting, dedup
// savings, and non-negative stage latencies.
func TestEngineStatsCounters(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("m", hashDetector{}, BatchConfig{MaxBatch: 8}); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var wg sync.WaitGroup
	const requests, perReq = 16, 4
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sentences := make([]string, perReq)
			for k := range sentences {
				// Half the sentences repeat across requests so the dedup
				// layer has work to account for.
				sentences[k] = fmt.Sprintf("sentence %d", (i*perReq+k)%(requests*perReq/2))
			}
			eng, err := reg.lookup("m")
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := eng.DetectContext(context.Background(), sentences); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	st, err := reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != requests {
		t.Fatalf("requests = %d, want %d", st.Requests, requests)
	}
	if st.Sentences != requests*perReq {
		t.Fatalf("sentences = %d, want %d", st.Sentences, requests*perReq)
	}
	if st.Batches == 0 {
		t.Fatal("no batches recorded")
	}
	if st.BatchOccupancy <= 0 {
		t.Fatalf("batch occupancy = %v, want > 0", st.BatchOccupancy)
	}
	if st.QueueWaitP99Ms < st.QueueWaitP50Ms || st.ComputeP99Ms < st.ComputeP50Ms {
		t.Fatalf("p99 below p50: %+v", st)
	}
	if st.QueueLen != 0 {
		t.Fatalf("queue_len = %d after drain, want 0", st.QueueLen)
	}

	// Reset zeroes everything.
	if err := reg.ResetStats("m"); err != nil {
		t.Fatal(err)
	}
	st, err = reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 0 || st.Sentences != 0 || st.Batches != 0 || st.MaxQueueLen != 0 || st.QueueWaitP99Ms != 0 {
		t.Fatalf("stats not zeroed by reset: %+v", st)
	}
}

// TestStatsOverHTTP checks the /v1/models stats snapshot and the
// /v1/stats/reset endpoint end to end.
func TestStatsOverHTTP(t *testing.T) {
	srv := NewServerWith(hashDetector{}, BatchConfig{MaxBatch: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"sentences": ["x is 1.0", "x is 2.0", "x is 1.0"]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/detect/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	get := func() ModelInfo {
		resp, err := ts.Client().Get(ts.URL + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var mr ModelsResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		if len(mr.Models) != 1 {
			t.Fatalf("models = %d, want 1", len(mr.Models))
		}
		return mr.Models[0]
	}
	info := get()
	if info.Stats.Requests != 1 || info.Stats.Sentences != 3 {
		t.Fatalf("stats over HTTP: %+v", info.Stats)
	}
	if info.Stats.DedupSaved != 1 {
		t.Fatalf("dedup_saved = %d, want 1 (one repeated sentence)", info.Stats.DedupSaved)
	}

	resp, err = ts.Client().Post(ts.URL+"/v1/stats/reset", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("reset status %d, want 204", resp.StatusCode)
	}
	if info = get(); info.Stats.Requests != 0 {
		t.Fatalf("stats not reset over HTTP: %+v", info.Stats)
	}

	// Unknown model on reset is a 404.
	resp, err = ts.Client().Post(ts.URL+"/v1/stats/reset?model=nope", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("reset unknown model status %d, want 404", resp.StatusCode)
	}
}

// TestTracePolicyFlaggedExported pins the exported policy decision against
// the monitor's internal one.
func TestTracePolicyFlaggedExported(t *testing.T) {
	p := DefaultTracePolicy()
	cases := []struct {
		jobs, anom int
		want       bool
	}{
		{100, 0, false},
		{100, 4, false},
		{100, 5, true}, // MinAnomalous
		{20, 2, true},  // MinFraction (10%)
		{20, 1, false}, // 5% < 10%
		{0, 0, false},  // empty trace never flags
		{3, 3, true},   // 100%
	}
	for _, c := range cases {
		if got := p.Flagged(c.jobs, c.anom); got != c.want {
			t.Errorf("Flagged(%d, %d) = %v, want %v", c.jobs, c.anom, got, c.want)
		}
		if got := p.flagged(TraceVerdict{Jobs: c.jobs, Anomalous: c.anom}); got != c.want {
			t.Errorf("exported/unexported disagree at (%d, %d)", c.jobs, c.anom)
		}
	}
}
