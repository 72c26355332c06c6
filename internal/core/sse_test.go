package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/logparse"
)

// sseClient subscribes to /v1/alerts and forwards event names+payloads.
type sseMsg struct {
	event string
	data  string
}

func sseSubscribe(t *testing.T, url string) (<-chan sseMsg, func()) {
	t.Helper()
	resp, err := http.Get(url + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	ch := make(chan sseMsg, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		var cur sseMsg
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.event != "":
				ch <- cur
				cur = sseMsg{}
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

func waitEvent(t *testing.T, ch <-chan sseMsg, event string) sseMsg {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatalf("SSE stream closed before %q event", event)
			}
			if m.event == event {
				return m
			}
		case <-deadline:
			t.Fatalf("no %q event within deadline", event)
		}
	}
}

// TestMonitorEndpointAndSSE is the streaming smoke test: ingest log lines
// over POST /v1/monitor and watch the alert and trace-flagged events arrive
// on GET /v1/alerts.
func TestMonitorEndpointAndSSE(t *testing.T) {
	s := NewServerWith(markDetector{}, BatchConfig{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	events, stop := sseSubscribe(t, srv.URL)
	defer stop()

	var body bytes.Buffer
	body.WriteString(logparse.LogLine(streamJob(3, 0, false)) + "\n")
	body.WriteString("this is not a log line\n")
	body.WriteString(logparse.LogLine(streamJob(3, 1, true)) + "\n")
	resp, err := http.Post(srv.URL+"/v1/monitor", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("monitor status = %d", resp.StatusCode)
	}
	var rep MonitorResponse
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Processed != 2 || rep.Alerts != 1 || rep.Malformed != 1 || rep.FlaggedTraces != 1 {
		t.Fatalf("report = %+v", rep.MonitorReport)
	}

	alert := waitEvent(t, events, "alert")
	var ae AlertEvent
	if err := json.Unmarshal([]byte(alert.data), &ae); err != nil {
		t.Fatal(err)
	}
	if ae.Trace != 3 || ae.Node != 1 || ae.Result.Category != "abnormal" {
		t.Fatalf("alert event = %+v", ae)
	}
	trace := waitEvent(t, events, "trace")
	var te traceEvent
	if err := json.Unmarshal([]byte(trace.data), &te); err != nil {
		t.Fatal(err)
	}
	if te.Trace != 3 || te.Anomalous != 1 || !te.Flagged {
		t.Fatalf("trace event = %+v", te)
	}

	// closeStreams ends the stream server-side (the graceful-shutdown path).
	s.closeStreams()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("SSE stream still open after closeStreams")
		}
	}
}

// TestMonitorEndpointJSONAndStrict covers the JSON body form and the strict
// query flag.
func TestMonitorEndpointJSONAndStrict(t *testing.T) {
	s := NewServerWith(markDetector{}, BatchConfig{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	body, _ := json.Marshal(MonitorRequest{Lines: []string{
		logparse.LogLine(streamJob(1, 0, true)),
		logparse.LogLine(streamJob(1, 1, false)),
	}})
	resp, err := http.Post(srv.URL+"/v1/monitor", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep MonitorResponse
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Processed != 2 || rep.Alerts != 1 {
		t.Fatalf("status %d, report %+v", resp.StatusCode, rep.MonitorReport)
	}

	// Strict mode aborts on the malformed line with a 400 + error field.
	resp, err = http.Post(srv.URL+"/v1/monitor?strict=1", "text/plain", strings.NewReader("garbage\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(rep.Error, "line 1") {
		t.Fatalf("strict status %d, error %q", resp.StatusCode, rep.Error)
	}
}

// TestMonitorIngestPersistsTraceState checks the server carries online trace
// state across ingest calls: a trace whose anomalies arrive in separate
// requests still trips the policy. Under DefaultTracePolicy (5 anomalies or
// 10%) the first ingest — 50 normal lines, then 2 abnormal — stays under both
// thresholds, and the second — 3 more abnormal — crosses 5 at 5/55 = 9.1%, so
// only the carried-over count can flag the trace.
func TestMonitorIngestPersistsTraceState(t *testing.T) {
	s := NewServerWith(markDetector{}, BatchConfig{Workers: 1})
	defer s.Close()

	var flagged []TraceVerdict
	sink := SinkFuncs{OnTrace: func(v TraceVerdict) { flagged = append(flagged, v) }}
	node := 0
	lines := func(normal, abnormal int) string {
		var sb strings.Builder
		for i := 0; i < normal+abnormal; i++ {
			sb.WriteString(logparse.LogLine(streamJob(9, node, i >= normal)) + "\n")
			node++
		}
		return sb.String()
	}
	rep, err := s.MonitorIngest(context.Background(), strings.NewReader(lines(50, 2)), false, sink)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlaggedTraces != 0 || len(flagged) != 0 {
		t.Fatalf("flagged after 2 anomalies in 52 jobs: %+v", rep)
	}
	rep, err = s.MonitorIngest(context.Background(), strings.NewReader(lines(0, 3)), false, sink)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlaggedTraces != 1 || len(flagged) != 1 {
		t.Fatalf("second ingest: report %+v, %d trace events", rep, len(flagged))
	}
	if v := flagged[0]; v.TraceID != 9 || v.Anomalous != 5 || v.Jobs != 55 {
		t.Fatalf("trace event = %+v, want trace 9 flagged at 5 of 55 jobs", v)
	}
}

// TestServerGoroutineDrain is the leak probe behind anomalyd's graceful
// shutdown: after closeStreams + Close, every server goroutine (workers,
// SSE handlers) must exit.
func TestServerGoroutineDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := NewServerWith(markDetector{}, BatchConfig{Workers: 4})
	srv := httptest.NewServer(s)
	events, stop := sseSubscribe(t, srv.URL)
	if _, err := s.DetectContext(context.Background(), []string{"warm"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DetectContext(ctx, []string{"cancelled"}); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}

	s.closeStreams()
	for range events { // drain until the handler ends the stream
	}
	stop()
	s.Close()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
