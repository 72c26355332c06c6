package core

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/flowbench"
)

// TestErrorContract pins the status and retry headers each failure answers
// on every endpoint that can meet it. A 429 carries Retry-After (whole
// seconds) and Retry-After-Ms; nothing else carries either. The server is one
// worker over a gateDetector with MaxRequest 2 and ShedQueueDepth 1, put in
// the state the case names before its one request.
func TestErrorContract(t *testing.T) {
	type endpoint struct{ path, ctype, body string }
	detect := endpoint{"/v1/detect", "application/json", `{"sentence": "x is 1.0"}`}
	batch := endpoint{"/v1/detect/batch", "application/json", `{"sentences": ["x is 1.0"]}`}
	monitor := endpoint{"/v1/monitor", "text/plain", logOf([]flowbench.Job{streamJob(1, 0, true), streamJob(1, 1, false)})}
	tooBig := endpoint{"/v1/detect/batch", "application/json", `{"sentences": ["a is 1.0", "b is 1.0", "c is 1.0"]}`}
	malformed := endpoint{"/v1/monitor", "text/plain", "garbage\n"}

	const (
		idle      = iota
		held      // the worker holds one batch; the queue is empty
		saturated // the worker holds one batch and the queue is at its budget
		closed    // Server.Close has run
	)
	cases := []struct {
		name   string
		state  int
		query  string
		eps    []endpoint
		status int
	}{
		{"unknown model", idle, "?model=nope", []endpoint{detect, batch, monitor}, http.StatusNotFound},
		{"over MaxRequest", idle, "", []endpoint{tooBig}, http.StatusRequestEntityTooLarge},
		{"bad deadline", idle, "?deadline_ms=zero", []endpoint{detect, batch}, http.StatusBadRequest},
		{"shed", saturated, "", []endpoint{detect, batch, monitor}, http.StatusTooManyRequests},
		{"expired deadline", held, "?deadline_ms=30", []endpoint{detect, batch}, http.StatusGatewayTimeout},
		{"closed server", closed, "", []endpoint{detect, batch, monitor}, http.StatusServiceUnavailable},
		{"strict malformed line", idle, "?strict=1", []endpoint{malformed}, http.StatusBadRequest},
	}
	for _, c := range cases {
		for _, ep := range c.eps {
			t.Run(c.name+" "+ep.path, func(t *testing.T) {
				det := newGateDetector()
				srv := NewServerWith(det, BatchConfig{MaxBatch: 2, Workers: 1, MaxRequest: 2, ShedQueueDepth: 1})
				defer srv.Close()
				ts := httptest.NewServer(srv)
				defer ts.Close()
				defer close(det.release) // LIFO: the worker unblocks before the closes wait on it

				switch c.state {
				case held, saturated:
					go srv.DetectContext(context.Background(), []string{"held"})
					<-det.entered
				case closed:
					srv.Close()
				}
				if c.state == saturated {
					go srv.DetectContext(context.Background(), []string{"queued"})
					waitFor(t, "the second request to queue behind the held worker", func() bool {
						st, _ := srv.Registry().Stats("")
						return st.QueueLen == 1
					})
				}

				resp, err := ts.Client().Post(ts.URL+ep.path+c.query, ep.ctype, strings.NewReader(ep.body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != c.status {
					t.Fatalf("status = %d, want %d", resp.StatusCode, c.status)
				}
				// The cold drain estimate is 25ms per job: the queued one plus
				// this one.
				wantRA, wantRAMs := "", ""
				if c.status == http.StatusTooManyRequests {
					wantRA, wantRAMs = "1", "50"
				}
				if ra, raMs := resp.Header.Get("Retry-After"), resp.Header.Get("Retry-After-Ms"); ra != wantRA || raMs != wantRAMs {
					t.Fatalf("Retry-After %q, Retry-After-Ms %q; want %q, %q", ra, raMs, wantRA, wantRAMs)
				}
			})
		}
	}
}
