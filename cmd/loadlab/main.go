// Command loadlab replays labeled, deterministic traffic scenarios against a
// serving anomalyd and reports throughput, stage latency, queue saturation,
// and detection quality per scenario.
//
//	loadlab -list                             # show the scenario taxonomy
//	loadlab                                   # train a small detector, replay all scenarios
//	loadlab -load genome.artifact             # serve a saved artifact in-process
//	loadlab -addr http://10.0.0.5:8080        # drive a remote anomalyd
//	loadlab -scenarios bursty,near-dup -out - # subset, report to stdout
//	loadlab -scenarios chaos-bursty -retries  # fault-injected replay, client retries
//	loadlab -chaos -shed-depth 64 -brownout 48 -deadline-ms 250  # full overload drill
//	loadlab -cascade                          # paired rows per scenario: cascade off, then on
//	loadlab -speed 2 -gateway 3 -gateway-kill # single node vs a fleet that loses a replica mid-replay
//
// Each scenario (see docs/SCENARIOS.md) is generated from a name + seed and
// is byte-identical across runs, so reports diff meaningfully across commits
// (TestRunSmoke pins the deterministic columns of five seconds-scale
// configurations). The replay is open-loop over real HTTP: requests fire
// at their scheduled instants whether or not the server keeps up, so
// queueing appears in the measurements instead of being absorbed by client
// backpressure. The dark baselines (PCA, isolation forest, MLP autoencoder)
// score the same event streams in-process as cheap comparison rows, and
// -cascade replays each scenario a second time with the calibrated stage-1
// gate armed so cascade off/on land as paired rows. The gate is also the
// brownout tier, so -brownout fits it and keeps it armed for every replay.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/baselines"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flowbench"
	"repro/internal/gateway"
	"repro/internal/logparse"
	"repro/internal/resilience"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadlab:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list scenarios and exit")
		names     = fs.String("scenarios", "all", `comma-separated scenarios to replay, or "all"`)
		events    = fs.Int("events", 2000, "events per scenario stream")
		seed      = fs.Uint64("seed", 42, "scenario generation seed")
		rate      = fs.Float64("rate", 400, "nominal arrival rate (lines/sec at speed 1)")
		workflow  = fs.String("workflow", "1000-genome", "Flow-Bench workflow traffic is drawn from")
		speed     = fs.Float64("speed", 10, "schedule compression factor (10 = replay a 10s schedule in 1s)")
		addr      = fs.String("addr", "", "remote anomalyd base URL (empty = boot one in-process)")
		load      = fs.String("load", "", "detector artifact to serve in-process (skips training)")
		trainN    = fs.Int("train", 400, "training subsample size (in-process training)")
		preSteps  = fs.Int("pretrain", 120, "pre-training steps")
		epochs    = fs.Int("epochs", 2, "SFT epochs")
		model     = fs.String("model", "distilbert-base-uncased", "model registry name for in-process training")
		trainSeed = fs.Uint64("train-seed", 9, "training seed")
		quantize  = fs.Bool("quantize", false, "serve int8-quantized weights")
		baseNames = fs.String("baselines", "pca,iforest,mlpae", `comma-separated dark baselines scored on the same streams ("none" to skip)`)
		monitors  = fs.String("monitor", "steady", `scenarios to additionally replay through /v1/monitor ("all", "none", or a comma list)`)
		out       = fs.String("out", "-", "report path (- = stdout)")
		detName   = fs.String("detector", "", "detector label in report rows (default: sft, int8, or the artifact name)")
		maxBatch  = fs.Int("max-batch", 64, "max sentences per batched model invocation (in-process)")
		workers   = fs.Int("workers", 0, "inference workers (0 = GOMAXPROCS, in-process)")
		chaos     = fs.Bool("chaos", false, "replay every scenario as its chaos variant: deterministic faults during the middle third of the schedule (in-process only)")
		shedDepth = fs.Int("shed-depth", 0, "admission-control queue depth; enqueues beyond it are shed with 429 (0 = off, in-process)")
		deadline  = fs.Int("deadline-ms", 0, "server-side default request deadline in milliseconds (0 = none, in-process)")
		brownout  = fs.Int("brownout", 0, "queue depth that engages brownout: detection answers degraded from a cascade gate fitted and armed for every replay (0 = off, in-process; not with -cascade or -gateway)")
		brownHold = fs.Duration("brownout-hold", 0, "how long the queue must stay saturated before brownout engages (0 = server default 250ms; compressed replays need a hold matched to their timescale)")
		retries   = fs.Bool("retries", false, "send replay requests through the resilience retry client (backoff, budget, Retry-After)")
		cascOn    = fs.Bool("cascade", false, "two-stage inference drill: replay each non-chaos scenario twice, ngram stage-1 gate off then on, as paired report rows (in-process only)")
		cascRec   = fs.Float64("cascade-recall", cascade.DefaultTargetRecall, "cascade calibration target recall")
		gatewayN  = fs.Int("gateway", 0, "replicated-serving drill: boot N in-process replicas behind an anomalygw gateway and replay each non-chaos scenario against it too, as paired single-node vs fleet rows (in-process only, N >= 2)")
		gwKill    = fs.Bool("gateway-kill", false, "with -gateway: reset every forward to the first replica for the middle third of each fleet replay, exercising its breaker opening and its half-open re-admission")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: flags take no positional words (-cascade is a bool flag)", fs.Args())
	}
	if *list {
		for _, d := range scenario.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", d.Name, d.Description)
		}
		return nil
	}

	if *gatewayN == 1 {
		return fmt.Errorf("-gateway needs at least 2 replicas to route between")
	}
	if *gwKill && *gatewayN == 0 {
		return fmt.Errorf("-gateway-kill needs -gateway N")
	}
	if *gatewayN > 0 && *cascOn {
		return fmt.Errorf("-gateway and -cascade both pair rows against the base replay; run them separately")
	}
	// -brownout arms a gate for the base replay, which -cascade and -gateway
	// each pair against a replay without one.
	if *brownout > 0 && (*cascOn || *gatewayN > 0) {
		return fmt.Errorf("-brownout arms the cascade gate its tier answers from, but -cascade and -gateway pair rows against a base replay without one; run them separately")
	}

	defs, chaosSet, err := pickScenarios(*names)
	if err != nil {
		return err
	}
	if *chaos {
		for _, d := range defs {
			chaosSet[d.Name] = true
		}
	}
	monitorSet, err := pickMonitorSet(*monitors, defs)
	if err != nil {
		return err
	}

	cfg := scenario.Config{
		Workflow: flowbench.Workflow(*workflow),
		Events:   *events,
		Seed:     *seed,
		Rate:     *rate,
	}

	// Resolve the server under test: a remote daemon, a loaded artifact, or
	// a detector trained right here. targets are what each scenario replays
	// against, the single node first.
	baseURL := *addr
	if baseURL != "" && !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	label := *detName
	remote := baseURL != ""
	var targets []target
	// stops shuts down what the in-process boot started, in reverse order.
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	if remote {
		if len(chaosSet) > 0 {
			return fmt.Errorf("chaos replays need the in-process server (faults are injected into its handler); drop -addr or use anomalyd -faults")
		}
		if *cascOn {
			return fmt.Errorf("-cascade pairs off/on replays by toggling the in-process model's gate; drop -addr (a remote anomalyd arms its own cascade with -cascade)")
		}
		if *gatewayN > 0 {
			return fmt.Errorf("-gateway boots its fleet in-process; drop -addr (a remote fleet is driven by pointing -addr at anomalygw)")
		}
		if label == "" {
			label = "remote"
		}
		targets = []target{{url: baseURL}}
	} else {
		det, defLabel, err := buildDetector(stderr, *load, *quantize, core.Options{
			Approach:      core.SFT,
			Workflow:      cfg.Workflow,
			Model:         *model,
			TrainSize:     *trainN,
			PretrainSteps: *preSteps,
			Epochs:        *epochs,
			Seed:          *trainSeed,
		})
		if err != nil {
			return err
		}
		if label == "" {
			label = defLabel
		}
		bcfg := core.BatchConfig{
			MaxBatch: *maxBatch, Workers: *workers,
			ShedQueueDepth:  *shedDepth,
			DefaultDeadline: time.Duration(*deadline) * time.Millisecond,
			BrownoutDepth:   *brownout,
			BrownoutHold:    *brownHold,
		}
		reg, gate, url, err := bootNode(det, bcfg, "", &stops)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "serving %s in-process at %s\n", label, url)
		var cascadeGate *cascade.Gate
		if *cascOn || *brownout > 0 {
			ds := flowbench.Generate(cfg.Workflow, cfg.Seed)
			cascadeGate, err = core.FitCascade(det, cascade.Config{TargetRecall: *cascRec}, ds.Train)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "cascade calibrated: ngram gate, target recall %.3f (%d calibration positives)\n",
				cascadeGate.TargetRecall(), cascadeGate.Positives())
			if *brownout > 0 {
				// The gate is the brownout tier: armed for every replay.
				if err := reg.SetCascade(core.DefaultModel, cascadeGate); err != nil {
					return err
				}
				fmt.Fprintf(stderr, "brownout armed: degrade to the cascade gate at queue depth %d\n", *brownout)
			}
		}
		targets = append(targets, target{
			url: url, reg: reg, gate: gate,
			campaign: func(s *scenario.Stream) (faults.Config, bool) {
				return scenario.ChaosPlan(s, *speed, *seed), chaosSet[s.Name]
			},
		})
		if *cascOn {
			// The same stream again with the stage-1 gate armed, so report
			// rows diff off vs on directly.
			targets = append(targets, target{
				suffix: "+cascade", url: url, reg: reg, cascade: cascadeGate,
				columns: cascadeAgreement,
			})
		}
		if *gatewayN > 0 {
			// The same stream against the replicated fleet, so report rows
			// diff single-node vs gateway directly (throughput and tail
			// latency at the same error budget).
			gwURL, gwReg, victim, err := bootFleet(det, bcfg, *gatewayN, &stops)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "gateway fleet: %d replicas behind %s\n", *gatewayN, gwURL)
			fleet := target{
				suffix: "+gw", url: gwURL, reg: gwReg, gate: victim,
				columns: func(_ *scenario.Stream, _, res *scenario.Result) map[string]float64 {
					cols := map[string]float64{
						"replicas":   float64(*gatewayN),
						"error_rate": float64(res.Errors) / float64(res.Requests),
					}
					if *gwKill {
						cols["replica_killed"] = 1
					}
					return cols
				},
			}
			if *gwKill {
				// Every forward to the victim is reset during the chaos
				// plan's window, the middle third of the compressed schedule.
				fleet.campaign = func(s *scenario.Stream) (faults.Config, bool) {
					return faults.Config{
						Seed: *seed, Every: 1, Kinds: []faults.Kind{faults.Reset},
						Window: scenario.ChaosPlan(s, *speed, *seed).Window,
					}, true
				}
			}
			targets = append(targets, fleet)
		}
	}

	// Seed baselines are fitted once on the workflow's training split and
	// calibrated so their predicted-positive rate matches the training
	// contamination — then they score every scenario's events in-process.
	var fits []func(*scenario.Stream) scenario.BenchEntry
	if *baseNames != "none" && *baseNames != "" {
		ds := flowbench.Generate(cfg.Workflow, cfg.Seed)
		for _, name := range strings.Split(*baseNames, ",") {
			sc, err := baselines.FitScorer(strings.TrimSpace(name), ds.Train, cfg.Seed)
			if err != nil {
				return err
			}
			cut := baselines.CalibrateThreshold(sc.Score(ds.Train), baselines.AnomalyRate(ds.Train))
			fits = append(fits, func(s *scenario.Stream) scenario.BenchEntry { return baselineEntry(s, sc, cut) })
		}
	}

	ctx := context.Background()
	report := &scenario.BenchReport{
		Recorded: time.Now().UTC().Format(time.RFC3339),
		CPU:      cpuModel(),
		Command:  "loadlab " + strings.Join(args, " "),
	}
	// Each scenario replays against every target in turn, through the same
	// code: the detect replay under the target's fault campaign, one summary
	// line and its row, then, for a scenario in -monitor, a monitor replay
	// outside the campaign and its row. A chaos variant replays against the
	// single node only: its injector state is consumed by that replay.
	for _, d := range defs {
		s := d.Generate(cfg)
		name, paired := d.Name, targets
		if chaosSet[d.Name] {
			name, paired = scenario.ChaosName(d.Name), targets[:1]
		}
		fmt.Fprintf(stderr, "replaying %s: %d events over %s (speed %gx)\n",
			name, len(s.Events), s.Duration().Round(time.Millisecond), *speed)
		var single *scenario.Result
		for _, tg := range paired {
			rowLabel := label + tg.suffix
			if tg.cascade != nil {
				if err := tg.reg.SetCascade(core.DefaultModel, tg.cascade); err != nil {
					return err
				}
			}
			rcfg := scenario.ReplayConfig{BaseURL: tg.url, Speed: *speed}
			if *retries || remote {
				// A fresh client per replay keeps the retry counters per row:
				// a deterministic backoff schedule plus a Finagle-style retry
				// budget, so a struggling server is never hammered by its own
				// benchmark. Remote replays always ride it: a WAN hop has
				// transient failures a lab loopback doesn't.
				rcfg.Retry = &resilience.Client{
					Policy: resilience.DefaultPolicy(*seed),
					Budget: resilience.NewBudget(32, 0.1),
				}
			}
			var inj *faults.Injector
			if tg.campaign != nil {
				if plan, ok := tg.campaign(s); ok {
					inj = faults.New(plan)
					rcfg.FaultWindow = plan.Window
					tg.gate.set(inj)
					inj.Arm()
				}
			}
			res, err := scenario.Replay(ctx, s, rcfg)
			if inj != nil {
				tg.gate.set(nil)
			}
			if err != nil {
				return fmt.Errorf("replay %s%s: %w", name, tg.suffix, err)
			}
			if res.Errors == res.Requests {
				return fmt.Errorf("replay %s%s: all %d requests to %s failed", name, tg.suffix, res.Requests, tg.url)
			}
			if single == nil {
				single = res
			}
			if res.Errors > 0 {
				fmt.Fprintf(stderr, "  %d/%d requests failed (timeout %d, shed %d, server %d, transport %d)\n",
					res.Errors, res.Requests, res.Failures.Timeout, res.Failures.Shed, res.Failures.Server, res.Failures.Transport)
			}
			if res.DegradedReqs > 0 || res.Server.Shed+res.Server.Expired > 0 {
				fmt.Fprintf(stderr, "  overload: server shed %d, expired %d, degraded %d lines (%d degraded responses)\n",
					res.Server.Shed, res.Server.Expired, res.Server.Degraded, res.DegradedReqs)
			}
			entry := res.Entry(rowLabel)
			if chaosSet[d.Name] {
				entry.Name = fmt.Sprintf("LoadLabChaos/%s/%s", d.Name, rowLabel)
			}
			if inj != nil {
				entry.Extra["faults_injected"] = float64(inj.Total())
				fmt.Fprintf(stderr, "  faults injected: %d %v\n", inj.Total(), inj.Counts())
				recov := fmt.Sprintf("%.0fms", res.Phases.RecoveryMs)
				if res.Phases.RecoveryMs < 0 {
					recov = "not observed"
				}
				fmt.Fprintf(stderr, "  p99 pre %.1fms / during %.1fms / post %.1fms, drain recovery %s\n",
					res.Phases.PreP99Ms, res.Phases.DuringP99Ms, res.Phases.PostP99Ms, recov)
			}
			line := fmt.Sprintf("  %s: %.0f lines/s, client p99 %.1fms, queue p99 %.1fms, AUC %.3f, trace F1 %.3f",
				rowLabel, res.LinesPerSec, res.ClientP99Ms, res.Server.QueueWaitP99Ms, res.Quality.AUC, res.Quality.TraceF1)
			if tg.columns != nil {
				cols := tg.columns(s, single, res)
				for _, k := range slices.Sorted(maps.Keys(cols)) {
					line += fmt.Sprintf(", %s %.4g", k, cols[k])
					entry.Extra[k] = cols[k]
				}
			}
			fmt.Fprintln(stderr, line)
			report.Entries = append(report.Entries, entry)

			if monitorSet[d.Name] {
				if tg.reg != nil {
					if err := tg.reg.ResetMonitor(core.DefaultModel); err != nil {
						return err
					}
				}
				mres, err := scenario.ReplayMonitor(ctx, s, rcfg)
				if err != nil {
					return fmt.Errorf("monitor replay %s%s: %w", d.Name, tg.suffix, err)
				}
				fmt.Fprintf(stderr, "  monitor%s: %.0f lines/s, %d alerts, %d flagged traces\n",
					tg.suffix, mres.LinesPerSec, mres.Report.Alerts, mres.Report.FlaggedTraces)
				report.Entries = append(report.Entries, mres.Entry(rowLabel))
			}
			if tg.cascade != nil {
				if err := tg.reg.SetCascade(core.DefaultModel, nil); err != nil {
					return err
				}
			}
		}
		for _, fit := range fits {
			report.Entries = append(report.Entries, fit(s))
		}
	}

	if *out == "-" {
		return report.Write(stdout)
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := report.Write(file); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "report written to %s (%d rows)\n", *out, len(report.Entries))
	return nil
}

// target is one server every scenario replays against, held as data so that
// run drives each the same way: the single node, the single node with its
// cascade gate armed (-cascade), or the gateway fleet (-gateway).
type target struct {
	suffix string // appended to the detector label in row names
	url    string
	// reg is the registry the target serves from, nil against a remote
	// server. Its trace tracker is reset before each monitor replay, so
	// repeated ingests of one stream (the paired rows, or the same scenario
	// across runs) report comparable flagged-trace counts instead of
	// latch-suppressed zeros.
	reg *core.Registry
	// cascade is armed in reg for the target's replays of each stream and
	// disarmed after them; nil leaves reg's gate as it is.
	cascade *cascade.Gate
	// campaign is the fault campaign for one stream's detect replay, set
	// in gate for that replay only; nil, or a false ok, replays clean.
	campaign func(s *scenario.Stream) (plan faults.Config, ok bool)
	gate     *faultGate
	// columns are the target's own report columns, given the single
	// node's result for the same stream.
	columns func(s *scenario.Stream, single, res *scenario.Result) map[string]float64
}

// serve starts h on a loopback port, appends its shutdown to stops, and
// returns its base URL.
func serve(h http.Handler, stops *[]func()) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hsrv := &http.Server{Handler: h}
	go hsrv.Serve(ln)
	*stops = append(*stops, func() { hsrv.Close() })
	return "http://" + ln.Addr().String(), nil
}

// bootNode serves det from a registry of its own, behind a faultGate, on a
// loopback port, appending each shutdown to stops. The single node and each
// fleet replica boot here.
func bootNode(det core.Detector, bcfg core.BatchConfig, instance string, stops *[]func()) (*core.Registry, *faultGate, string, error) {
	reg := core.NewRegistry()
	if err := reg.Add(core.DefaultModel, det, bcfg); err != nil {
		return nil, nil, "", err
	}
	srv := core.NewServerRegistry(reg)
	srv.SetInstance(instance)
	*stops = append(*stops, srv.Close)
	gate := &faultGate{next: srv}
	url, err := serve(gate, stops)
	return reg, gate, url, err
}

// bootFleet boots the -gateway drill: n in-process replicas (all serving the
// shared detector — batch scoring is read-only) behind a gateway front,
// appending each shutdown to stops. reg is the front's registry, whose trace
// tracker is the fleet's only one. victim is the first replica's gate, where
// -gateway-kill's campaign goes: the front routes to the replica with the
// least outstanding work and breaks ties in configuration order, so the
// first replica is the one work meets.
func bootFleet(det core.Detector, bcfg core.BatchConfig, n int, stops *[]func()) (url string, reg *core.Registry, victim *faultGate, err error) {
	var urls []string
	for i := 0; i < n; i++ {
		_, gate, u, err := bootNode(det, bcfg, fmt.Sprintf("r%d", i), stops)
		if err != nil {
			return "", nil, nil, err
		}
		if i == 0 {
			victim = gate
		}
		urls = append(urls, u)
	}
	gw, err := gateway.New(context.Background(), gateway.Config{Replicas: urls})
	if err != nil {
		return "", nil, nil, err
	}
	*stops = append(*stops, gw.Close)
	if url, err = serve(gw, stops); err != nil {
		return "", nil, nil, err
	}
	return url, gw.Registry(), victim, nil
}

// faultGate is the swap-in point for fault campaigns: an atomically
// replaceable fault injector in front of an in-process server (the single
// node for chaos replays, the first replica for -gateway-kill), so each
// replay can arm its own deterministic campaign and clean replays pass
// through untouched.
type faultGate struct {
	next http.Handler
	inj  atomic.Pointer[faults.Injector]
}

func (g *faultGate) set(inj *faults.Injector) { g.inj.Store(inj) }

func (g *faultGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if inj := g.inj.Load(); inj != nil {
		inj.Wrap(g.next).ServeHTTP(w, r)
		return
	}
	g.next.ServeHTTP(w, r)
}

// pickScenarios resolves the -scenarios flag to scenario definitions plus
// the set of names requested as chaos variants ("chaos-bursty" replays the
// bursty stream behind the fault injector).
func pickScenarios(names string) ([]scenario.Def, map[string]bool, error) {
	chaosSet := map[string]bool{}
	if names == "all" || names == "" {
		return scenario.All(), chaosSet, nil
	}
	var defs []scenario.Def
	for _, name := range strings.Split(names, ",") {
		base, isChaos := scenario.SplitChaos(strings.TrimSpace(name))
		d, err := scenario.Lookup(base)
		if err != nil {
			return nil, nil, err
		}
		defs = append(defs, d)
		if isChaos {
			chaosSet[base] = true
		}
	}
	return defs, chaosSet, nil
}

// pickMonitorSet resolves the -monitor flag to the scenarios that also get a
// /v1/monitor replay.
func pickMonitorSet(spec string, defs []scenario.Def) (map[string]bool, error) {
	set := map[string]bool{}
	switch spec {
	case "none", "":
		return set, nil
	case "all":
		for _, d := range defs {
			set[d.Name] = true
		}
		return set, nil
	}
	for _, name := range strings.Split(spec, ",") {
		if _, err := scenario.Lookup(strings.TrimSpace(name)); err != nil {
			return nil, err
		}
		set[strings.TrimSpace(name)] = true
	}
	return set, nil
}

// buildDetector resolves the in-process detector: a loaded artifact or a
// fresh small training run.
func buildDetector(stderr io.Writer, load string, quantize bool, opts core.Options) (core.Detector, string, error) {
	if load != "" {
		// loadlab never arms an artifact's gate (-cascade fits its own), so a
		// saved gate this build cannot rebuild does not block the detector.
		det, _, err := core.LoadDetectorFile(load)
		if det == nil {
			return nil, "", err
		}
		if err != nil {
			fmt.Fprintf(stderr, "ignoring the artifact's cascade gate: %v\n", err)
		}
		if quantize && det.Precision() != core.PrecisionInt8 {
			if det, err = core.QuantizeDetector(det); err != nil {
				return nil, "", err
			}
		}
		label := filepath.Base(load)
		if ext := filepath.Ext(label); ext != "" {
			label = strings.TrimSuffix(label, ext)
		}
		return det, label, nil
	}
	fmt.Fprintf(stderr, "training %s (%d jobs, %d pretrain steps, %d epochs)...\n",
		opts.Model, opts.TrainSize, opts.PretrainSteps, opts.Epochs)
	start := time.Now()
	det, rep, err := core.Train(opts)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(stderr, "detector ready in %s: %d params, held-out %s\n",
		time.Since(start).Round(time.Millisecond), rep.Params, rep.Test)
	label := "sft"
	if quantize {
		if det, err = core.QuantizeDetector(det); err != nil {
			return nil, "", err
		}
		label = "int8"
	}
	return det, label, nil
}

// cascadeAgreement compares the paired replays of one stream: per-event
// verdict agreement over events both runs answered, and whether the trace
// policy flags exactly the same traces under either run's verdicts — the
// parity contract the cascade is calibrated to hold. They are the cascade
// row's verdict_agreement and trace_flags_equal (1 or 0) columns.
func cascadeAgreement(s *scenario.Stream, base, casc *scenario.Result) map[string]float64 {
	policy := core.DefaultTracePolicy()
	both, same := 0, 0
	jobs := map[int]int{}
	baseAnom := map[int]int{}
	cascAnom := map[int]int{}
	for i, ev := range s.Events {
		id := ev.Job.TraceID
		jobs[id]++
		pb, pc := base.Preds[i], casc.Preds[i]
		if pb >= 0 && pc >= 0 {
			both++
			if pb == pc {
				same++
			}
		}
		if pb > 0 {
			baseAnom[id]++
		}
		if pc > 0 {
			cascAnom[id]++
		}
	}
	equal := 1.0
	for id, n := range jobs {
		if policy.Flagged(n, baseAnom[id]) != policy.Flagged(n, cascAnom[id]) {
			equal = 0
			break
		}
	}
	agree := 1.0
	if both > 0 {
		agree = float64(same) / float64(both)
	}
	return map[string]float64{"verdict_agreement": agree, "trace_flags_equal": equal}
}

// baselineEntry scores one stream with a fitted seed baseline and packages
// the row. Baselines run in-process on the ground-truth feature vectors (the
// exact numbers the log lines render), so their quality is comparable to the
// served detector's while their cost stays a pure Score call.
func baselineEntry(s *scenario.Stream, sc baselines.JobScorer, cutoff float64) scenario.BenchEntry {
	jobs := make([]flowbench.Job, len(s.Events))
	for i, ev := range s.Events {
		j, err := logparse.ParseLogLine(ev.Line)
		if err != nil {
			j = ev.Job // generated lines always parse; belt and braces
		}
		jobs[i] = j
	}
	start := time.Now()
	scores := sc.Score(jobs)
	wall := time.Since(start)
	preds := baselines.Threshold(scores, cutoff)
	q := scenario.EvaluateScores(s, scores, preds, core.TracePolicy{})
	nsPerLine := float64(wall) / float64(len(jobs))
	linesPerSec := 0.0
	if wall > 0 {
		linesPerSec = float64(len(jobs)) / wall.Seconds()
	}
	return scenario.BenchEntry{
		Name:    fmt.Sprintf("LoadLab/%s/%s", s.Name, sc.Name()),
		NsPerOp: nsPerLine,
		Extra: map[string]float64{
			"events":        float64(len(jobs)),
			"lines_per_sec": linesPerSec,
			"roc_auc":       q.AUC,
			"avg_precision": q.AP,
			"line_f1":       q.LineF1,
			"trace_f1":      q.TraceF1,
		},
	}
}

// cpuModel reads the CPU model name for the report header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					return strings.TrimSpace(line[i+1:])
				}
			}
		}
	}
	return runtime.GOARCH
}
