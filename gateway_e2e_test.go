package repro

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gateway/ring"
	"repro/internal/resilience"
	"repro/internal/scenario"
)

// TestGatewayChaosEndToEnd is the replicated-serving acceptance gate: three
// anomalyd replicas behind the anomalygw gateway, one killed mid-replay.
// The drill must keep the client-visible failure rate bounded with a clean
// taxonomy, re-home every affected trace to exactly one surviving replica
// with fleet-merged monitor verdicts identical to a single node's, deliver
// each replica's alerts in input order through the fan-in stream, recover
// its tail latency once the ejection settles, and leak zero goroutines after
// shutdown.
func TestGatewayChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det := e2eDetector(t)
	before := runtime.NumGoroutine()

	// Three replicas, each its own registry and HTTP server over the shared
	// detector (batch scoring is read-only; trace state is per-registry —
	// exactly what the ring protects).
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
	g, err := gateway.New(ctx, gateway.Config{
		Replicas:       urls,
		HealthInterval: 25 * time.Millisecond, // ejection inside the compressed replay
	})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g)

	d, err := scenario.Lookup("steady")
	if err != nil {
		t.Fatal(err)
	}
	// ~150 lines/s for ~4s of wall time: enough runway for the kill, the
	// ejection, and a post window, while staying under fleet capacity on a
	// contended CI box — over-driving trips the replicas' admission control
	// (saturated /readyz -> ejection -> boundary shed) and turns the clean
	// baseline into a shed measurement. The race detector slows inference
	// ~10x, so the race build drives an order of magnitude gentler.
	events, rate := 600, 150.0
	if raceEnabled {
		events, rate = 250, 25.0
	}
	s := d.Generate(scenario.Config{Workflow: "1000-genome", Events: events, Seed: 42, Rate: rate})
	const speed = 1.0
	rcfg := scenario.ReplayConfig{BaseURL: gs.URL, Model: "genome-sft", Speed: speed, Timeout: 30 * time.Second}

	// Plain builds must serve the clean windows perfectly; under the race
	// detector's slowdown, transient queue saturation can blip a replica's
	// /readyz and shed a handful of requests at the boundary, so the race
	// build gets a 2% budget instead of zero.
	cleanBudget := 0
	if raceEnabled {
		cleanBudget = events / 50
	}

	// Phase 1 — clean fleet baseline.
	clean, err := scenario.Replay(ctx, s, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Errors > cleanBudget {
		t.Fatalf("clean fleet replay failed %d/%d requests (%+v)", clean.Errors, clean.Requests, clean.Failures)
	}

	// Phase 2 — the same stream with one replica killed mid-replay. The kill
	// lands a third of the way in, so the run records a pre window, the
	// outage + ejection, and a post window on the surviving fleet.
	//
	// The victim is the replica that owns the most of the stream: the ring
	// hashes replica URLs, httptest picks their ports, and with a fixed victim
	// about one run in sixty killed a replica owning none of the stream's
	// handful of traces, leaving phase 4 nothing to re-route.
	rg := ring.New(urls, 0)
	owned := map[string]int{}
	for _, ev := range s.Events {
		owned[rg.Owner(ring.TraceKey(ev.Job.TraceID))]++
	}
	victim := 0
	for i, u := range urls {
		if owned[u] > owned[urls[victim]] {
			victim = i
		}
	}
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

	// Bounded, well-typed failure: retries + rotation absorb most of the
	// outage; what leaks through must be part of the taxonomy, not hangs.
	if rate := float64(chaos.Errors) / float64(chaos.Requests); rate > 0.25 {
		t.Errorf("failure rate %.3f exceeds 0.25 with one of three replicas killed (%+v)", rate, chaos.Failures)
	}
	if chaos.Failures.Total() != chaos.Errors {
		t.Errorf("taxonomy total %d != errors %d", chaos.Failures.Total(), chaos.Errors)
	}

	// The health checker must have ejected the victim (and only it).
	waitUntil(t, 2*time.Second, func() bool {
		var rr gateway.ReadyResponse
		if err := getJSON(gs.URL+"/readyz", &rr); err != nil {
			return false
		}
		healthy := 0
		victimHealthy := false
		for _, st := range rr.Replicas {
			if st.Healthy {
				healthy++
				if st.URL == urls[victim] {
					victimHealthy = true
				}
			}
		}
		return rr.Ready && healthy == n-1 && !victimHealthy
	})

	// Phase 3 — post-window recovery: the surviving fleet must serve the
	// stream cleanly again, with tail latency back at the clean baseline.
	post, err := scenario.Replay(ctx, s, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if post.Errors > cleanBudget {
		t.Fatalf("post-ejection replay failed %d/%d requests (%+v)", post.Errors, post.Requests, post.Failures)
	}
	if !raceEnabled {
		bound := 1.5*clean.ClientP99Ms + 100
		if post.ClientP99Ms > bound {
			t.Errorf("post-ejection p99 %.1fms did not recover to %.1fms (clean p99 %.1fms)",
				post.ClientP99Ms, bound, clean.ClientP99Ms)
		}
	}

	// Phase 4 — trace re-routing correctness. Subscribe to the fan-in alert
	// stream, then demux the full monitor stream through the gateway with the
	// victim dead: no line may be lost, every line must land on a survivor,
	// traces owned by the victim must re-home to their next ring preference,
	// and the fleet-merged report must match a fresh single node bit for bit.
	alerts := subscribeAlerts(t, gs.URL)
	// SSE has no replay: wait until the gateway's per-replica alert readers
	// are attached to both survivors before producing alerts, or the head of
	// the stream is silently missed.
	waitUntil(t, 2*time.Second, func() bool {
		for i := 0; i < n; i++ {
			if i == victim {
				continue
			}
			var mr core.ModelsResponse
			if err := getJSON(urls[i]+"/v1/models", &mr); err != nil || mr.SSE.Subscribers < 1 {
				return false
			}
		}
		return true
	})

	var input strings.Builder
	traceLines := map[int]int{}
	for _, ev := range s.Events {
		input.WriteString(ev.Line)
		input.WriteByte('\n')
		traceLines[ev.Job.TraceID]++
	}
	droppedBefore := sseDropped(t, urls, victim)
	resp, err := http.Post(gs.URL+"/v1/monitor?model=genome-sft&strict=1", "text/plain", strings.NewReader(input.String()))
	if err != nil {
		t.Fatal(err)
	}
	var agg gateway.MonitorAggregate
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || agg.Error != "" {
		t.Fatalf("gateway monitor: status %d, error %q", resp.StatusCode, agg.Error)
	}
	if agg.Gateway.Lost != 0 {
		t.Fatalf("lost %d monitor lines with two healthy survivors", agg.Gateway.Lost)
	}
	if agg.Processed != len(s.Events) {
		t.Fatalf("fleet processed %d of %d lines", agg.Processed, len(s.Events))
	}
	if lines := agg.Gateway.Lines[urls[victim]]; lines != 0 {
		t.Errorf("%d lines routed to the dead victim", lines)
	}

	// Exactly-one-survivor accounting: with a fresh tracker per registry and
	// no evictions at this scale, distinct traces across survivors must sum
	// to the stream's distinct traces — double-counting (a split trace) or
	// undercounting (a lost trace) both break the equality.
	survivorTraces := 0
	for i := 0; i < n; i++ {
		infos := regs[i].Info()
		if len(infos) != 1 {
			t.Fatalf("replica %d registry has %d models", i, len(infos))
		}
		active := infos[0].ActiveTraces
		if i == victim {
			if active != 0 {
				t.Errorf("victim tracker saw %d traces after death", active)
			}
			continue
		}
		survivorTraces += active
	}
	if survivorTraces != len(traceLines) {
		t.Errorf("survivors hold %d distinct traces, stream has %d (traces split or lost)",
			survivorTraces, len(traceLines))
	}
	rerouteWant := 0
	for id := range traceLines {
		if rg.Owner(ring.TraceKey(id)) == urls[victim] {
			rerouteWant++
		}
	}
	if rerouteWant == 0 {
		t.Fatal("drill vacuous: the victim owned no traces")
	}
	if agg.Gateway.Rerouted == 0 {
		t.Errorf("victim owned %d traces but the demux re-routed no lines", rerouteWant)
	}

	// Verdict correctness: the fleet-merged report must match a fresh single
	// node ingesting the identical stream — consistent-hash demux must not
	// change what gets flagged.
	refReg := core.NewRegistry()
	if err := refReg.Add("genome-sft", det, core.BatchConfig{MaxBatch: 64, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	refSrv := core.NewServerRegistry(refReg)
	ref, err := refSrv.MonitorIngestModel(ctx, "genome-sft", strings.NewReader(input.String()), true)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Alerts != ref.Alerts || agg.FlaggedTraces != ref.FlaggedTraces ||
		agg.ActiveTraces != ref.ActiveTraces || agg.Malformed != ref.Malformed {
		t.Errorf("fleet-merged report diverges from single node:\n fleet  %+v\n single %+v",
			agg.MonitorReport, ref)
	}
	refSrv.Close()

	// Phase 5 — in-order alerts through the fan-in: events interleave across
	// replicas, but each trace lives on one replica, so per-trace alert order
	// must follow input order.
	//
	// How many events arrive is not the report's count: a replica's alert bus
	// never blocks ingest, so when the collector publishes a chunk's alerts
	// faster than the SSE handler writes them out, the gateway's reader — the
	// bus's one subscriber — falls more than its 64-event buffer behind and
	// misses events. The bus counts every miss, and every publish has
	// happened by the time the monitor reply is back, so what must hold
	// exactly is delivered + dropped == published, over both event kinds.
	perTrace := map[int][]string{}
	for _, ev := range s.Events {
		perTrace[ev.Job.TraceID] = append(perTrace[ev.Job.TraceID], ev.Line)
	}
	dropped := sseDropped(t, urls, victim) - droppedBefore
	published := agg.Alerts + agg.FlaggedTraces
	got, traceEvents := collectEvents(alerts, published-dropped, 20*time.Second)
	pos := map[int]int{}
	for i, a := range got {
		lines := perTrace[a.Trace]
		found := false
		for pos[a.Trace] < len(lines) {
			if lines[pos[a.Trace]] == a.Line {
				found = true
				pos[a.Trace]++
				break
			}
			pos[a.Trace]++
		}
		if !found {
			t.Fatalf("alert %d (trace %d, %q) arrived out of that trace's input order", i, a.Trace, a.Line)
		}
	}
	t.Logf("alert fan-in: %d alert + %d trace events delivered, %d dropped by the replica buses, %d published",
		len(got), traceEvents, dropped, published)
	if len(got)+traceEvents+dropped != published {
		t.Errorf("fan-in delivered %d alert + %d trace events and the replica buses dropped %d; report counted %d alerts + %d flagged traces",
			len(got), traceEvents, dropped, agg.Alerts, agg.FlaggedTraces)
	}
	if len(got) > agg.Alerts || traceEvents > agg.FlaggedTraces {
		t.Errorf("fan-in delivered %d alert / %d trace events, more than the %d / %d the report counted",
			len(got), traceEvents, agg.Alerts, agg.FlaggedTraces)
	}

	// Wind down everything and verify nothing leaked: gateway health loops,
	// alert fan-in readers, replica worker pools, SSE buses.
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
	go func() {
		defer close(sub.ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
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

// sseDropped sums the surviving replicas' alert-bus drop counters.
func sseDropped(t *testing.T, urls []string, victim int) int {
	t.Helper()
	total := 0
	for i, u := range urls {
		if i == victim {
			continue
		}
		var mr core.ModelsResponse
		if err := getJSON(u+"/v1/models", &mr); err != nil {
			t.Fatal(err)
		}
		total += int(mr.SSE.Dropped)
	}
	return total
}

func getJSON(url string, v interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}
