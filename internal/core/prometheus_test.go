package core

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsEndpoint drives traffic through the server and checks the
// Prometheus exposition: content type, per-model labels, counter values
// matching /v1/models, and the instance label when set.
func TestMetricsEndpoint(t *testing.T) {
	srv := NewServerWith(hashDetector{}, BatchConfig{MaxBatch: 8})
	defer srv.Close()
	srv.SetInstance("r7")
	hs := httptest.NewServer(srv)
	defer hs.Close()

	if _, err := srv.DetectContext(context.Background(), []string{"a b c", "d e f"}); err != nil {
		t.Fatal(err)
	}

	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if got := resp.Header.Get("X-Replica"); got != "r7" {
		t.Fatalf("X-Replica = %q, want r7", got)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE repro_requests_total counter",
		`repro_requests_total{model="default"} 1`,
		`repro_sentences_total{model="default"} 2`,
		`repro_queue_len{model="default"}`,
		`repro_batch_occupancy{model="default"}`,
		`repro_stage_latency_ms_count{model="default",stage="compute"} 1`,
		`repro_shed_total{model="default"} 0`,
		`repro_instance_info{instance="r7"} 1`,
		"repro_ready 1",
		"repro_sse_subscribers 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
