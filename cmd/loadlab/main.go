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
//	loadlab -cascade ngram                    # paired rows per scenario: cascade off, then on
//
// Each scenario (see docs/SCENARIOS.md) is generated from a name + seed and
// is byte-identical across runs, so reports diff meaningfully across commits
// (TestRunSmoke pins the deterministic columns of four seconds-scale
// configurations). The replay is open-loop over real HTTP: requests fire
// at their scheduled instants whether or not the server keeps up, so
// queueing appears in the measurements instead of being absorbed by client
// backpressure. The dark baselines (PCA, isolation forest, MLP autoencoder)
// score the same event streams in-process as cheap comparison rows, and
// -cascade replays each scenario a second time with the calibrated stage-1
// gate armed so cascade off/on land as paired rows.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
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
		brownout  = fs.Int("brownout", 0, "queue depth that engages brownout degradation to a calibrated PCA baseline (0 = off, in-process)")
		brownHold = fs.Duration("brownout-hold", 0, "how long the queue must stay saturated before brownout engages (0 = server default 250ms; compressed replays need a hold matched to their timescale)")
		retries   = fs.Bool("retries", false, "send replay requests through the resilience retry client (backoff, budget, Retry-After)")
		cascName  = fs.String("cascade", "", "two-stage inference drill: replay each non-chaos scenario twice, stage-1 gate (ngram, pca, or iforest) off then on, as paired report rows (in-process only)")
		cascRec   = fs.Float64("cascade-recall", cascade.DefaultTargetRecall, "cascade calibration target recall")
		gatewayN  = fs.Int("gateway", 0, "replicated-serving drill: boot N in-process replicas behind an anomalygw gateway and replay each non-chaos scenario against it too, as paired single-node vs fleet rows (in-process only, N >= 2)")
		gwKill    = fs.Bool("gateway-kill", false, "with -gateway: blackhole one replica for the middle third of each gateway replay, exercising ejection, re-routing, and re-admission")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
	if *gatewayN > 0 && *cascName != "" {
		return fmt.Errorf("-gateway and -cascade both pair rows against the base replay; run them separately")
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
	// a detector trained right here.
	baseURL := *addr
	if baseURL != "" && !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	label := *detName
	var cleanup func()
	var gate *faultGate
	// cascadeArm toggles the in-process model's stage-1 gate between the
	// paired off/on replays; nil when -cascade is off.
	var cascadeArm func(on bool) error
	// monReset clears the in-process model's trace tracker before each
	// monitor replay, so repeated ingests of the same stream (the cascade
	// off/on pair, or the same scenario across runs) report comparable
	// flagged-trace counts instead of latch-suppressed zeros; nil against a
	// remote server.
	var monReset func() error
	// Gateway drill state (nil/empty unless -gateway N): the fleet's base
	// URL, a fleet-wide tracker reset, and the blackhole switch for -gateway-kill.
	var gwURL string
	var gwReset func() error
	var gwKiller *killGate
	remote := baseURL != ""
	if baseURL == "" {
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
		reg := core.NewRegistry()
		if err := reg.Add(core.DefaultModel, det, bcfg); err != nil {
			return err
		}
		if *brownout > 0 {
			ds := flowbench.Generate(cfg.Workflow, cfg.Seed)
			fb, err := core.FitFallback("pca", ds.Train, cfg.Seed)
			if err != nil {
				return err
			}
			if err := reg.SetFallback(core.DefaultModel, fb); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "brownout fallback fitted (pca, engages at queue depth %d)\n", *brownout)
		}
		if *cascName != "" {
			ds := flowbench.Generate(cfg.Workflow, cfg.Seed)
			g, err := core.FitCascade(det, cascade.Config{
				Scorer: *cascName, TargetRecall: *cascRec, Seed: cfg.Seed,
			}, ds.Train)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "cascade calibrated: %s gate, target recall %.3f (%d calibration positives)\n",
				g.Scorer(), g.TargetRecall(), g.Positives())
			cascadeArm = func(on bool) error {
				if on {
					return reg.SetCascade(core.DefaultModel, g)
				}
				return reg.SetCascade(core.DefaultModel, nil)
			}
		}
		monReset = func() error { return reg.ResetMonitor(core.DefaultModel) }
		srv := core.NewServerRegistry(reg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return err
		}
		gate = &faultGate{next: srv}
		hsrv := &http.Server{Handler: gate}
		go hsrv.Serve(ln)
		baseURL = "http://" + ln.Addr().String()
		cleanup = func() {
			hsrv.Close()
			srv.Close()
		}
		fmt.Fprintf(stderr, "serving %s in-process at %s\n", label, baseURL)
		if *gatewayN > 0 {
			var gwCleanup func()
			gwURL, gwReset, gwKiller, gwCleanup, err = bootGatewayFleet(det, bcfg, *gatewayN, *gwKill)
			if err != nil {
				cleanup()
				return err
			}
			prev := cleanup
			cleanup = func() {
				gwCleanup()
				prev()
			}
			fmt.Fprintf(stderr, "gateway fleet: %d replicas behind %s\n", *gatewayN, gwURL)
		}
	} else {
		if len(chaosSet) > 0 {
			return fmt.Errorf("chaos replays need the in-process server (faults are injected into its handler); drop -addr or use anomalyd -faults")
		}
		if *cascName != "" {
			return fmt.Errorf("-cascade pairs off/on replays by toggling the in-process model's gate; drop -addr (a remote anomalyd arms its own cascade with -cascade)")
		}
		if *gatewayN > 0 {
			return fmt.Errorf("-gateway boots its fleet in-process; drop -addr (a remote fleet is driven by pointing -addr at anomalygw)")
		}
		if label == "" {
			label = "remote"
		}
	}
	if cleanup != nil {
		defer cleanup()
	}

	// Seed baselines are fitted once on the workflow's training split and
	// calibrated so their predicted-positive rate matches the training
	// contamination — then they score every scenario's events in-process.
	type fitted struct {
		scorer baselines.JobScorer
		cutoff float64
	}
	var fits []fitted
	if *baseNames != "none" && *baseNames != "" {
		ds := flowbench.Generate(cfg.Workflow, cfg.Seed)
		for _, name := range strings.Split(*baseNames, ",") {
			sc, err := baselines.FitScorer(strings.TrimSpace(name), ds.Train, cfg.Seed)
			if err != nil {
				return err
			}
			cut := baselines.CalibrateThreshold(sc.Score(ds.Train), baselines.AnomalyRate(ds.Train))
			fits = append(fits, fitted{scorer: sc, cutoff: cut})
		}
	}

	rcfg := scenario.ReplayConfig{BaseURL: baseURL, Speed: *speed}
	ctx := context.Background()
	report := &scenario.BenchReport{
		Recorded: time.Now().UTC().Format(time.RFC3339),
		CPU:      cpuModel(),
		Command:  "loadlab " + strings.Join(args, " "),
	}

	for _, d := range defs {
		s := d.Generate(cfg)
		displayName := d.Name
		scfg := rcfg
		var inj *faults.Injector
		if chaosSet[d.Name] {
			displayName = scenario.ChaosName(d.Name)
			plan := scenario.ChaosPlan(s, *speed, *seed)
			inj = faults.New(plan)
			scfg.FaultWindow = plan.Window
			gate.set(inj)
		}
		if *retries || remote {
			// A fresh client per scenario keeps the retry counters per-row.
			// Remote replays always ride the resilience client: a WAN hop has
			// transient failures a lab loopback doesn't, and the budget keeps
			// a sick server from being hammered by its own benchmark.
			scfg.Retry = retryClient(*seed)
		}
		fmt.Fprintf(stderr, "replaying %s: %d events over %s (speed %gx)\n",
			displayName, len(s.Events), s.Duration().Round(time.Millisecond), *speed)

		if inj != nil {
			inj.Arm()
		}
		res, err := scenario.Replay(ctx, s, scfg)
		if inj != nil {
			gate.set(nil)
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", displayName, err)
		}
		if res.Errors == res.Requests {
			return fmt.Errorf("replay %s: all %d requests to %s failed", displayName, res.Requests, baseURL)
		}
		if res.Errors > 0 {
			fmt.Fprintf(stderr, "  %d/%d requests failed (timeout %d, shed %d, server %d, transport %d)\n",
				res.Errors, res.Requests, res.Failures.Timeout, res.Failures.Shed, res.Failures.Server, res.Failures.Transport)
		}
		if res.DegradedReqs > 0 || res.Server.Shed+res.Server.Expired > 0 {
			fmt.Fprintf(stderr, "  overload: server shed %d, expired %d, degraded %d lines (%d degraded responses)\n",
				res.Server.Shed, res.Server.Expired, res.Server.Degraded, res.DegradedReqs)
		}
		if inj != nil {
			fmt.Fprintf(stderr, "  faults injected: %d %v\n", inj.Total(), inj.Counts())
			if res.Phases != nil {
				recov := fmt.Sprintf("%.0fms", res.Phases.RecoveryMs)
				if res.Phases.RecoveryMs < 0 {
					recov = "not observed"
				}
				fmt.Fprintf(stderr, "  p99 pre %.1fms / during %.1fms / post %.1fms, drain recovery %s\n",
					res.Phases.PreP99Ms, res.Phases.DuringP99Ms, res.Phases.PostP99Ms, recov)
			}
		}
		fmt.Fprintf(stderr, "  %s: %.0f lines/s, client p99 %.1fms, queue p99 %.1fms, AUC %.3f, trace F1 %.3f\n",
			label, res.LinesPerSec, res.ClientP99Ms, res.Server.QueueWaitP99Ms, res.Quality.AUC, res.Quality.TraceF1)
		entry := res.Entry(label)
		if inj != nil {
			entry.Name = fmt.Sprintf("LoadLabChaos/%s/%s", d.Name, label)
			entry.Extra["faults_injected"] = float64(inj.Total())
		}
		report.Entries = append(report.Entries, entry)

		var monBase *scenario.MonitorResult
		if monitorSet[d.Name] {
			if monReset != nil {
				if err := monReset(); err != nil {
					return err
				}
			}
			mres, err := scenario.ReplayMonitor(ctx, s, rcfg)
			if err != nil {
				return fmt.Errorf("monitor replay %s: %w", d.Name, err)
			}
			monBase = mres
			fmt.Fprintf(stderr, "  monitor: %.0f lines/s, %d alerts, %d flagged traces\n",
				mres.LinesPerSec, mres.Report.Alerts, mres.Report.FlaggedTraces)
			report.Entries = append(report.Entries, mres.Entry(label))
		}

		// Paired cascade replay: the same stream again with the stage-1 gate
		// armed, so report rows diff off vs on directly. Chaos variants stay
		// unpaired — their injector state is consumed by the first replay.
		if cascadeArm != nil && inj == nil {
			if err := cascadeArm(true); err != nil {
				return err
			}
			ccfg := rcfg
			if *retries {
				ccfg.Retry = retryClient(*seed)
			}
			cres, err := scenario.Replay(ctx, s, ccfg)
			if err != nil {
				return fmt.Errorf("cascade replay %s: %w", d.Name, err)
			}
			agree, flagsEqual := cascadeAgreement(s, res, cres)
			speedup := 0.0
			if cres.LinesPerSec > 0 && res.LinesPerSec > 0 {
				speedup = cres.LinesPerSec / res.LinesPerSec
			}
			fmt.Fprintf(stderr, "  %s+cascade: %.0f lines/s (%.2fx), agreement %.4f, trace flags equal %v, pass fraction %.2f\n",
				label, cres.LinesPerSec, speedup, agree, flagsEqual, cres.Server.CascadePassFraction)
			centry := cres.Entry(label + "+cascade")
			centry.Extra["verdict_agreement"] = agree
			centry.Extra["trace_flags_equal"] = 0
			if flagsEqual {
				centry.Extra["trace_flags_equal"] = 1
			}
			report.Entries = append(report.Entries, centry)
			if monBase != nil {
				if monReset != nil {
					if err := monReset(); err != nil {
						return err
					}
				}
				mcres, err := scenario.ReplayMonitor(ctx, s, rcfg)
				if err != nil {
					return fmt.Errorf("cascade monitor replay %s: %w", d.Name, err)
				}
				mspeed := 0.0
				if monBase.LinesPerSec > 0 {
					mspeed = mcres.LinesPerSec / monBase.LinesPerSec
				}
				fmt.Fprintf(stderr, "  monitor+cascade: %.0f lines/s (%.2fx), %d alerts, %d flagged traces\n",
					mcres.LinesPerSec, mspeed, mcres.Report.Alerts, mcres.Report.FlaggedTraces)
				report.Entries = append(report.Entries, mcres.Entry(label+"+cascade"))
			}
			if err := cascadeArm(false); err != nil {
				return err
			}
		}

		// Paired gateway replay: the same stream against the replicated fleet,
		// so report rows diff single-node vs gateway directly (throughput and
		// tail latency at the same error budget). Chaos variants stay
		// unpaired — their injector state is consumed by the first replay.
		if gwURL != "" && inj == nil {
			gcfg := rcfg
			gcfg.BaseURL = gwURL
			if *retries {
				gcfg.Retry = retryClient(*seed)
			}
			var killed func()
			if gwKiller != nil {
				killed = gwKiller.schedule(time.Duration(float64(s.Duration()) / *speed))
			}
			gres, err := scenario.Replay(ctx, s, gcfg)
			if killed != nil {
				killed() // cancel timers, revive the victim for the next row
			}
			if err != nil {
				return fmt.Errorf("gateway replay %s: %w", displayName, err)
			}
			if gres.Errors > 0 {
				fmt.Fprintf(stderr, "  %d/%d gateway requests failed (timeout %d, shed %d, server %d, transport %d)\n",
					gres.Errors, gres.Requests, gres.Failures.Timeout, gres.Failures.Shed, gres.Failures.Server, gres.Failures.Transport)
			}
			gspeed := 0.0
			if res.LinesPerSec > 0 {
				gspeed = gres.LinesPerSec / res.LinesPerSec
			}
			errRate := 0.0
			if gres.Requests > 0 {
				errRate = float64(gres.Errors) / float64(gres.Requests)
			}
			fmt.Fprintf(stderr, "  %s+gw: %.0f lines/s (%.2fx), client p99 %.1fms, errors %.2f%% (%d replicas)\n",
				label, gres.LinesPerSec, gspeed, gres.ClientP99Ms, 100*errRate, *gatewayN)
			gentry := gres.Entry(label + "+gw")
			gentry.Extra["replicas"] = float64(*gatewayN)
			gentry.Extra["error_rate"] = errRate
			if gwKiller != nil {
				gentry.Extra["replica_killed"] = 1
			}
			report.Entries = append(report.Entries, gentry)

			if monitorSet[d.Name] {
				if err := gwReset(); err != nil {
					return err
				}
				mcfg := rcfg
				mcfg.BaseURL = gwURL
				gmres, err := scenario.ReplayMonitor(ctx, s, mcfg)
				if err != nil {
					return fmt.Errorf("gateway monitor replay %s: %w", d.Name, err)
				}
				fmt.Fprintf(stderr, "  monitor+gw: %.0f lines/s, %d alerts, %d flagged traces\n",
					gmres.LinesPerSec, gmres.Report.Alerts, gmres.Report.FlaggedTraces)
				report.Entries = append(report.Entries, gmres.Entry(label+"+gw"))
			}
		}

		for _, f := range fits {
			report.Entries = append(report.Entries, baselineEntry(s, f.scorer, f.cutoff))
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

// retryClient builds one replay's resilience client: deterministic backoff
// schedule plus a Finagle-style retry budget, so a struggling server is never
// hammered by its own benchmark.
func retryClient(seed uint64) *resilience.Client {
	return &resilience.Client{
		Policy: resilience.DefaultPolicy(seed),
		Budget: resilience.NewBudget(32, 0.1),
	}
}

// bootGatewayFleet builds the -gateway drill: n in-process replicas (each
// its own registry and HTTP server, all serving the shared detector — batch
// scoring is read-only) behind a gateway with test-paced health checking.
// With kill armed, the last replica sits behind a killGate blackhole.
func bootGatewayFleet(det core.Detector, bcfg core.BatchConfig, n int, kill bool) (gwURL string, reset func() error, killer *killGate, cleanup func(), err error) {
	var cleanups []func()
	cleanup = func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	fail := func(e error) (string, func() error, *killGate, func(), error) {
		cleanup()
		return "", nil, nil, nil, e
	}
	var urls []string
	var regs []*core.Registry
	for i := 0; i < n; i++ {
		reg := core.NewRegistry()
		if err := reg.Add(core.DefaultModel, det, bcfg); err != nil {
			return fail(err)
		}
		srv := core.NewServerRegistry(reg)
		srv.SetInstance(fmt.Sprintf("r%d", i))
		var h http.Handler = srv
		if kill && i == n-1 {
			killer = &killGate{next: srv}
			h = killer
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return fail(err)
		}
		hsrv := &http.Server{Handler: h}
		go hsrv.Serve(ln)
		urls = append(urls, "http://"+ln.Addr().String())
		regs = append(regs, reg)
		cleanups = append(cleanups, func() {
			hsrv.Close()
			srv.Close()
		})
	}
	gw, err := gateway.New(context.Background(), gateway.Config{
		Replicas:       urls,
		HealthInterval: 50 * time.Millisecond, // compressed replays need compressed ejection
	})
	if err != nil {
		return fail(err)
	}
	cleanups = append(cleanups, gw.Close)
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	ghsrv := &http.Server{Handler: gw}
	go ghsrv.Serve(gln)
	cleanups = append(cleanups, func() { ghsrv.Close() })
	reset = func() error {
		for _, reg := range regs {
			if err := reg.ResetMonitor(core.DefaultModel); err != nil {
				return err
			}
		}
		return nil
	}
	return "http://" + gln.Addr().String(), reset, killer, cleanup, nil
}

// killGate is the -gateway-kill blackhole: while dead, every connection is
// hijacked and slammed shut (the gateway sees transport errors, exactly like
// a crashed replica), falling back to 503 where hijacking is unavailable.
type killGate struct {
	next http.Handler
	dead atomic.Bool
}

func (k *killGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	k.next.ServeHTTP(w, r)
}

// schedule arms one replay's kill window — dead from 1/3 to 2/3 of the
// compressed wall duration — and returns a func that cancels the timers and
// revives the victim (idempotent; call it when the replay ends).
func (k *killGate) schedule(wall time.Duration) func() {
	killT := time.AfterFunc(wall/3, func() { k.dead.Store(true) })
	reviveT := time.AfterFunc(2*wall/3, func() { k.dead.Store(false) })
	return func() {
		killT.Stop()
		reviveT.Stop()
		k.dead.Store(false)
	}
}

// faultGate is the swap-in point for chaos campaigns: an atomically
// replaceable fault injector in front of the in-process server, so each
// scenario can arm its own deterministic campaign and clean replays pass
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
		det, err := core.LoadDetectorFile(load)
		if err != nil {
			return nil, "", err
		}
		if quantize && core.DetectorPrecision(det) != core.PrecisionInt8 {
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
// parity contract the cascade is calibrated to hold.
func cascadeAgreement(s *scenario.Stream, base, casc *scenario.Result) (float64, bool) {
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
	equal := true
	for id, n := range jobs {
		if policy.Flagged(n, baseAnom[id]) != policy.Flagged(n, cascAnom[id]) {
			equal = false
			break
		}
	}
	agree := 1.0
	if both > 0 {
		agree = float64(same) / float64(both)
	}
	return agree, equal
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
