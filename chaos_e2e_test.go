package repro

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flowbench"
	"repro/internal/resilience"
	"repro/internal/scenario"
)

// TestChaosReplayEndToEnd is the overload acceptance gate: the trained
// detector serves behind admission control and a brownout tier, a clean
// replay establishes the latency baseline, then the identical stream is
// replayed through a deterministic fault campaign with client retries on.
// The run must keep the failure rate bounded, recover its p99 after the
// fault window closes, deliver alerts in input order while faults fire, and
// leak zero goroutines once the server winds down.
func TestChaosReplayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det := e2eDetector(t)
	ds := flowbench.Generate(flowbench.Genome, 42)
	gate, err := core.FitCascade(det, cascade.Config{}, ds.Train)
	if err != nil {
		t.Fatal(err)
	}

	d, err := scenario.Lookup("steady")
	if err != nil {
		t.Fatal(err)
	}
	s := d.Generate(scenario.Config{Workflow: flowbench.Genome, Events: 600, Seed: 42, Rate: 400})
	const speed = 1.0
	plan := scenario.ChaosPlan(s, speed, 42)
	inj := faults.New(plan)

	before := runtime.NumGoroutine()

	reg := core.NewRegistry()
	cfg := core.BatchConfig{MaxBatch: 64, Workers: 2, ShedQueueDepth: 64, BrownoutDepth: 48}
	if err := reg.Add("genome-sft", det, cfg); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCascade("genome-sft", gate); err != nil {
		t.Fatal(err)
	}
	srv := core.NewServerRegistry(reg)
	hs := httptest.NewServer(inj.Wrap(srv)) // disarmed: clean replays pass through

	ctx := context.Background()
	rcfg := scenario.ReplayConfig{BaseURL: hs.URL, Model: "genome-sft", Speed: speed, Timeout: 30 * time.Second}
	clean, err := scenario.Replay(ctx, s, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Errors != 0 {
		t.Fatalf("clean replay failed %d/%d requests (%+v)", clean.Errors, clean.Requests, clean.Failures)
	}

	inj.Arm()
	ccfg := rcfg
	ccfg.FaultWindow = plan.Window
	ccfg.Retry = &resilience.Client{Policy: resilience.DefaultPolicy(42)}
	chaos, err := scenario.Replay(ctx, s, ccfg)
	inj.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	if inj.Total() == 0 {
		t.Fatal("fault campaign never fired")
	}
	t.Logf("faults %d %v; errors %d/%d %+v; retries %d; server shed %d expired %d degraded %d",
		inj.Total(), inj.Counts(), chaos.Errors, chaos.Requests, chaos.Failures,
		ccfg.Retry.RetriesSent.Load(), chaos.Server.Shed, chaos.Server.Expired, chaos.Server.Degraded)

	// Bounded failure rate: retries absorb most injected faults, so at most a
	// quarter of requests may fail even though ~1 in 4 in-window requests was
	// perturbed.
	if rate := float64(chaos.Errors) / float64(chaos.Requests); rate > 0.25 {
		t.Errorf("failure rate %.3f exceeds 0.25 (failures %+v)", rate, chaos.Failures)
	}
	if chaos.Failures.Total() != chaos.Errors {
		t.Errorf("taxonomy total %d != errors %d", chaos.Failures.Total(), chaos.Errors)
	}
	if chaos.Phases == nil {
		t.Fatal("chaos replay recorded no phase latencies")
	}
	t.Logf("p99: clean %.1fms; chaos pre %.1f / during %.1f / post %.1fms; drain recovery %.0fms",
		clean.ClientP99Ms, chaos.Phases.PreP99Ms, chaos.Phases.DuringP99Ms, chaos.Phases.PostP99Ms,
		chaos.Phases.RecoveryMs)

	// Recovery, asserted drain-aware: RecoveryMs marks when completions got
	// back under the pre-fault bound, so a queue backlog outlasting the
	// schedule reads as "not observed" (−1) rather than passing on a
	// post-window percentile the backlog never touched. The steady scenario
	// at this load must both observe recovery and complete it before the
	// clean tail ends. Meaningless under the race detector's ~10x slowdown.
	if !raceEnabled {
		if chaos.Phases.RecoveryMs < 0 {
			t.Errorf("recovery not observed within the run (post p99 %.1fms, pre p99 %.1fms)",
				chaos.Phases.PostP99Ms, chaos.Phases.PreP99Ms)
		}
		// The clean tail is the final third of the schedule; recovery must
		// land inside it, not merely before the process exits.
		tailMs := float64((plan.Window.End - plan.Window.Start) / time.Millisecond)
		if chaos.Phases.RecoveryMs > tailMs {
			t.Errorf("drain recovery took %.0fms, longer than the %.0fms clean tail",
				chaos.Phases.RecoveryMs, tailMs)
		}
		bound := 1.2*clean.ClientP99Ms + 50
		if chaos.Phases.PostP99Ms > bound {
			t.Errorf("post-fault p99 %.1fms did not recover to %.1fms (clean p99 %.1fms)",
				chaos.Phases.PostP99Ms, bound, clean.ClientP99Ms)
		}
	}

	// In-order alert delivery while the campaign is armed: the monitor path
	// shares the engine with the faulted detect path, and its alerts must
	// still arrive as a subsequence of the input.
	inj.Arm()
	var alertLines []string
	sink := core.SinkFuncs{OnAlert: func(a core.Alert) { alertLines = append(alertLines, a.Line) }}
	var input strings.Builder
	for _, ev := range s.Events {
		input.WriteString(ev.Line)
		input.WriteByte('\n')
	}
	report, err := srv.MonitorIngestModel(ctx, "genome-sft", strings.NewReader(input.String()), true, sink)
	inj.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	if report.Processed != len(s.Events) || len(alertLines) == 0 {
		t.Fatalf("monitor under chaos: processed %d, alerts %d", report.Processed, len(alertLines))
	}
	pos := 0
	for i, line := range alertLines {
		found := false
		for pos < len(s.Events) {
			if s.Events[pos].Line == line {
				found = true
				pos++
				break
			}
			pos++
		}
		if !found {
			t.Fatalf("alert %d (%q) arrived out of input order", i, line)
		}
	}

	// Wind down and verify nothing leaked: the worker pools, SSE bus, and
	// every in-flight request goroutine must exit.
	hs.Close()
	srv.Close()
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
