package repro

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/scenario"
)

// TestGatewayChaosEndToEnd is the replicated-serving acceptance gate: three
// anomalyd replicas behind the anomalygw front, one killed mid-replay. The
// drill must keep the client-visible failure rate bounded with a clean
// taxonomy, open the victim's breaker and only its, recover its tail latency
// on the survivors, report monitor verdicts identical to a single node's with
// no trace state on any replica, deliver the alerts in input order through
// the front's own stream, and leak zero goroutines after shutdown.
func TestGatewayChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det := e2eDetector(t)
	before := runtime.NumGoroutine()

	// Three replicas, each its own registry and HTTP server over the shared
	// detector (batch scoring is read-only).
	const n = 3
	regs := make([]*core.Registry, n)
	srvs := make([]*core.Server, n)
	https := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		regs[i] = core.NewRegistry()
		if err := regs[i].Add("genome-sft", det, core.BatchConfig{MaxBatch: 64, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		srvs[i] = core.NewServerRegistry(regs[i])
		srvs[i].SetInstance(fmt.Sprintf("r%d", i))
		https[i] = httptest.NewServer(srvs[i])
		urls[i] = https[i].URL
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g, err := gateway.New(ctx, gateway.Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g)

	d, err := scenario.Lookup("steady")
	if err != nil {
		t.Fatal(err)
	}
	// ~150 lines/s for ~4s of wall time: enough runway for the kill, the
	// breaker opening, and a post window. The race detector slows inference
	// ~10x, so the race build drives an order of magnitude gentler.
	events, rate := 600, 150.0
	if raceEnabled {
		events, rate = 250, 25.0
	}
	s := d.Generate(scenario.Config{Workflow: "1000-genome", Events: events, Seed: 42, Rate: rate})
	const speed = 1.0
	rcfg := scenario.ReplayConfig{BaseURL: gs.URL, Model: "genome-sft", Speed: speed, Timeout: 30 * time.Second}

	// Phase 1 — clean fleet baseline. Saturation queues at the front rather
	// than failing anything, so a clean fleet serves every request.
	clean, err := scenario.Replay(ctx, s, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Errors != 0 {
		t.Fatalf("clean fleet replay failed %d/%d requests (%+v)", clean.Errors, clean.Requests, clean.Failures)
	}

	// Phase 2 — the same stream with one replica killed a third of the way
	// in. The victim is the first replica in preference order (ties in
	// outstanding work go to configuration order), so the kill meets work.
	const victim = 0
	wall := time.Duration(float64(s.Duration()) / speed)
	killT := time.AfterFunc(wall/3, func() {
		https[victim].CloseClientConnections()
		https[victim].Close()
	})
	defer killT.Stop()
	ccfg := rcfg
	ccfg.Retry = &resilience.Client{Policy: resilience.DefaultPolicy(42), Budget: resilience.NewBudget(32, 0.1)}
	chaos, err := scenario.Replay(ctx, s, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kill drill: errors %d/%d %+v; retries %d; clean p99 %.1fms chaos p99 %.1fms",
		chaos.Errors, chaos.Requests, chaos.Failures, ccfg.Retry.RetriesSent.Load(),
		clean.ClientP99Ms, chaos.ClientP99Ms)

	// Bounded, well-typed failure: the front re-sends a failed batch to a
	// survivor; what leaks through must be part of the taxonomy, not hangs.
	if rate := float64(chaos.Errors) / float64(chaos.Requests); rate > 0.25 {
		t.Errorf("failure rate %.3f exceeds 0.25 with one of three replicas killed (%+v)", rate, chaos.Failures)
	}
	if chaos.Failures.Total() != chaos.Errors {
		t.Errorf("taxonomy total %d != errors %d", chaos.Failures.Total(), chaos.Errors)
	}

	// The victim's breaker opened, and only its.
	metrics := getText(t, gs.URL+"/metrics")
	for i, u := range urls {
		ejected := strings.Contains(metrics, fmt.Sprintf("repro_gateway_ejections_total{replica=%q} 0\n", u))
		if ejected == (i == victim) {
			t.Errorf("replica %d: ejected %v, want %v\n%s", i, !ejected, i == victim, metrics)
		}
	}

	// The front keeps no memo: what it receives are its replicas' answers,
	// the cascade gate's among them when a replica arms one, and those are
	// not a function of the line's tokens. A replica keeps its own.
	const noMemo = `repro_memo_entries{model="genome-sft"} 0` + "\n"
	if !strings.Contains(metrics, noMemo) {
		t.Errorf("the front memoizes:\n%s", metrics)
	}
	if strings.Contains(getText(t, urls[1]+"/metrics"), noMemo) {
		t.Error("a surviving replica kept no memo of the lines it served")
	}

	// Phase 3 — post-window recovery: the survivors must serve the stream
	// cleanly again, with tail latency back at the clean baseline.
	post, err := scenario.Replay(ctx, s, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if post.Errors != 0 {
		t.Fatalf("post-kill replay failed %d/%d requests (%+v)", post.Errors, post.Requests, post.Failures)
	}
	if !raceEnabled {
		bound := 1.5*clean.ClientP99Ms + 100
		if post.ClientP99Ms > bound {
			t.Errorf("post-kill p99 %.1fms did not recover to %.1fms (clean p99 %.1fms)",
				post.ClientP99Ms, bound, clean.ClientP99Ms)
		}
	}

	// Phase 4 — the monitor, with the victim dead. The front runs the one
	// monitor loop and the one tracker, so its report must be a fresh single
	// node's, field for field, and no replica may hold trace state.
	alerts := subscribeAlerts(t, gs.URL)
	var input strings.Builder
	for _, ev := range s.Events {
		input.WriteString(ev.Line)
		input.WriteByte('\n')
	}
	droppedBefore := sseDropped(t, gs.URL)
	resp, err := http.Post(gs.URL+"/v1/monitor?model=genome-sft&strict=1", "text/plain", strings.NewReader(input.String()))
	if err != nil {
		t.Fatal(err)
	}
	var mr core.MonitorResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mr.Error != "" {
		t.Fatalf("front monitor: status %d, error %q", resp.StatusCode, mr.Error)
	}
	refSrv := core.NewServerRegistry(core.NewRegistry())
	if err := refSrv.Registry().Add("genome-sft", det, core.BatchConfig{MaxBatch: 64, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	ref, err := refSrv.MonitorIngestModel(ctx, "genome-sft", strings.NewReader(input.String()), true)
	if err != nil {
		t.Fatal(err)
	}
	refSrv.Close()
	if mr.MonitorReport != ref {
		t.Errorf("front report diverges from a single node's:\n front  %+v\n single %+v", mr.MonitorReport, ref)
	}
	if mr.Processed != len(s.Events) || mr.Alerts == 0 {
		t.Errorf("front processed %d of %d lines with %d alerts; the comparison needs all of them and some alerts",
			mr.Processed, len(s.Events), mr.Alerts)
	}
	for i := 0; i < n; i++ {
		if active := regs[i].Info()[0].ActiveTraces; active != 0 {
			t.Errorf("replica %d tracks %d traces, want 0: trace state is the front's", i, active)
		}
	}

	// Phase 5 — the alerts through the front's own /v1/alerts: one bus, fed
	// by the monitor's collector, so the alert events are a subsequence of
	// the input. The bus never blocks ingest and drops what a subscriber
	// more than 64 events behind cannot take, counting each drop, so what
	// must hold exactly is delivered + dropped == published.
	dropped := sseDropped(t, gs.URL) - droppedBefore
	published := mr.Alerts + mr.FlaggedTraces
	got, traceEvents := collectEvents(alerts, published-dropped, 20*time.Second)
	pos := 0
	for i, a := range got {
		for pos < len(s.Events) && s.Events[pos].Line != a.Line {
			pos++
		}
		if pos == len(s.Events) {
			t.Fatalf("alert %d (trace %d, %q) arrived out of input order", i, a.Trace, a.Line)
		}
		pos++
	}
	t.Logf("alerts: %d alert + %d trace events delivered, %d dropped, %d published",
		len(got), traceEvents, dropped, published)
	if len(got)+traceEvents+dropped != published {
		t.Errorf("delivered %d alert + %d trace events and dropped %d; the report counted %d alerts + %d flagged traces",
			len(got), traceEvents, dropped, mr.Alerts, mr.FlaggedTraces)
	}

	// Wind down everything and verify nothing leaked: the front's workers
	// and SSE stream, the replicas' worker pools.
	alerts.close()
	gs.Close()
	g.Close()
	for i := 0; i < n; i++ {
		if i != victim {
			https[i].Close()
		}
		srvs[i].Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
				before, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// alertSub is a live /v1/alerts fan-in subscription feeding its events into a
// channel: alert events parsed, trace events as nil (only counted).
type alertSub struct {
	ch    chan *core.AlertEvent
	close func()
}

func subscribeAlerts(t *testing.T, base string) *alertSub {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/alerts", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	sub := &alertSub{ch: make(chan *core.AlertEvent, 4096)}
	sub.close = func() {
		cancel()
		resp.Body.Close()
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	// The server subscribes before it writes the stream's opening comment:
	// once that is read, no event can be missed.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		sub.close()
		t.Fatalf("alert stream opened with %q", sc.Text())
	}
	go func() {
		defer close(sub.ch)
		event, data := "", ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && event != "":
				switch event {
				case "alert":
					var ev core.AlertEvent
					if json.Unmarshal([]byte(data), &ev) == nil {
						sub.ch <- &ev
					}
				case "trace":
					sub.ch <- nil
				}
				event, data = "", ""
			}
		}
	}()
	return sub
}

// collectEvents drains want events from the subscription (or times out,
// returning what arrived): the alert events in order, and how many trace
// events came with them.
func collectEvents(sub *alertSub, want int, timeout time.Duration) (alerts []core.AlertEvent, traces int) {
	deadline := time.After(timeout)
	for len(alerts)+traces < want {
		select {
		case ev, ok := <-sub.ch:
			switch {
			case !ok:
				return alerts, traces
			case ev == nil:
				traces++
			default:
				alerts = append(alerts, *ev)
			}
		case <-deadline:
			return alerts, traces
		}
	}
	return alerts, traces
}

// sseDropped reads the alert bus's drop counter from base's /v1/models.
func sseDropped(t *testing.T, base string) int {
	t.Helper()
	var mr core.ModelsResponse
	if err := getJSON(base+"/v1/models", &mr); err != nil {
		t.Fatal(err)
	}
	return int(mr.SSE.Dropped)
}

func getJSON(url string, v interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
