// Command anomalyd serves anomaly detectors over HTTP — the production
// deployment of the paper's real-time detection scenario.
//
// Train once, serve many:
//
//	anomalyd -approach sft -train-out genome-sft.artifact     # train + save + exit
//	anomalyd -train-out genome-int8.artifact -quantize        # train + quantize + save
//	anomalyd -load genome-sft.artifact                        # serve in milliseconds
//	anomalyd -load genome=g.artifact,montage=m.artifact       # two models, one process
//	anomalyd -load fp32=g.artifact,int8=g-int8.artifact       # both precisions, one process
//	anomalyd -approach icl -model mistral                     # legacy: train at boot, then serve
//
// -quantize switches serving to the int8 integer-compute path: artifacts
// saved with it are ~4× smaller and serve faster at ≥99% verdict agreement
// with fp32; fp32 artifacts loaded with it are quantized at boot. A registry
// can serve fp32 and int8 variants side by side under different names (GET
// /v1/models reports each model's precision).
//
// Endpoints:
//
//	POST /v1/detect[?model=]        {"sentence": "wms_delay is 6.0 ..."} or {"log_line": "wf=... runtime=..."}
//	POST /v1/detect/batch[?model=]  {"sentences": [...]}
//	POST /v1/monitor[?model=]       raw log lines (or {"lines": [...]}) → monitor report
//	GET  /v1/models                 registered models + serving stats
//	GET  /v1/alerts                 SSE stream of alerts + trace-flagged verdicts
//	GET  /healthz                   liveness (always 200 while the process serves)
//	GET  /readyz                    readiness: 503 while any model is saturated or browned out
//
// Overload safety: -shed-depth bounds each model's queue (excess enqueues are
// answered 429 with Retry-After / Retry-After-Ms), -max-queue-wait sheds
// stale queued work at dequeue, -deadline enforces a server-side request
// deadline (clients override per request with ?deadline_ms=), and -brownout
// answers detection from each model's cascade gate alone under sustained
// saturation (responses carry "degraded": true). -faults arms a deterministic
// fault-injection campaign (see internal/faults) for chaos drills; see
// docs/RELIABILITY.md.
//
// -cascade arms two-stage inference: a calibrated cheap scorer (ngram, a
// supervised count table over the tokenizer's magnitude buckets)
// short-circuits confident lines in front of the transformer, always on.
// -cascade-recall sets the calibration target (default 0.995); per-model
// gating counters appear under "stats" in GET /v1/models. Gates fitted at
// training time travel inside the artifact (-train-out -cascade) and re-arm
// automatically on -load; -load with -cascade refits them. The gate is also
// the brownout tier, so -brownout fits one, as -cascade does, for every model
// that has none — which turns the cascade on for normal traffic too (it is
// calibrated to keep ≥99% of verdicts in agreement with transformer-only
// serving). See docs/PERFORMANCE.md.
//
// With -load the daemon performs zero training steps at boot: each artifact
// (written by -train-out) is loaded into the model registry under its name
// (`name=path`, or the file's base name) and the first is the default route.
// Concurrent requests are micro-batched through a per-model coalescing worker
// pool; -max-batch and -workers tune it (see docs/API.md). With -tail the
// daemon also follows a growing log file (the paper's Section IV-C loop)
// through the default model.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, open SSE
// streams and the tail loop end, in-flight requests finish, and only then
// are the inference workers released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flowbench"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		approach     = flag.String("approach", "sft", "sft or icl (training modes)")
		model        = flag.String("model", "", "model name (defaults per approach)")
		workflow     = flag.String("workflow", "1000-genome", "training workflow")
		trainN       = flag.Int("train", 1000, "training subsample size")
		epochs       = flag.Int("epochs", 3, "SFT epochs")
		preSteps     = flag.Int("pretrain", 400, "pre-training steps")
		debias       = flag.Bool("debias", true, "apply the empty-sentence debiasing augmentation")
		seed         = flag.Uint64("seed", 42, "seed")
		trainOut     = flag.String("train-out", "", "train, write the detector artifact to this path, and exit (no serving)")
		load         = flag.String("load", "", "comma-separated detector artifacts to serve ([name=]path, first is default); skips training entirely")
		quantize     = flag.Bool("quantize", false, "serve/save int8-quantized weights: with -load, quantize fp32 artifacts at load; with -train-out (or train-and-serve), quantize the trained detector")
		maxBatch     = flag.Int("max-batch", 32, "max sentences per batched model invocation")
		workers      = flag.Int("workers", 0, "inference workers per model (0 = GOMAXPROCS)")
		maxReq       = flag.Int("max-request", 0, "per-request sentence cap on /v1/detect/batch (0 = default 2048)")
		tail         = flag.String("tail", "", "log file to follow and classify through the default model (empty = serve only)")
		tailPoll     = flag.Duration("tail-poll", 500*time.Millisecond, "poll interval while waiting for new -tail data")
		strict       = flag.Bool("strict", false, "abort -tail on the first malformed line instead of skipping it")
		shedDepth    = flag.Int("shed-depth", 0, "admission-control queue depth: enqueues beyond it are shed with 429 + Retry-After (0 = off)")
		maxQueueWait = flag.Duration("max-queue-wait", 0, "shed queued requests older than this at dequeue (0 = off)")
		deadline     = flag.Duration("deadline", 0, "default per-request deadline, overridable per request via ?deadline_ms (0 = none)")
		brownout     = flag.Int("brownout", 0, "queue depth that engages brownout: detection answers degraded from the model's cascade gate until load recedes; arms a gate (as -cascade) on every model without one (0 = off)")
		brownHold    = flag.Duration("brownout-hold", 0, "how long the queue must stay saturated before brownout engages (0 = default 250ms)")
		faultsSpec   = flag.String("faults", "", `fault-injection campaign armed at listen, e.g. "seed=7,every=5,kinds=latency+error,window=10s:30s,path=/v1/" — chaos drills only`)
		cascOn       = flag.Bool("cascade", false, "two-stage inference: a calibrated ngram stage-1 scorer short-circuits confident lines before the transformer")
		cascRecall   = flag.Float64("cascade-recall", cascade.DefaultTargetRecall, "cascade calibration target: fraction of flagged calibration lines that must still reach the transformer")
		instance     = flag.String("instance", "", "replica name stamped on responses (X-Replica) and /metrics (repro_instance_info) when serving behind anomalygw")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("anomalyd: unexpected arguments %q: flags take no positional words (-cascade is a bool flag)", flag.Args())
	}
	if *trainOut != "" && *load != "" {
		log.Fatal("anomalyd: -train-out and -load are mutually exclusive")
	}

	cfg := core.BatchConfig{
		MaxBatch: *maxBatch, Workers: *workers, MaxRequest: *maxReq,
		ShedQueueDepth: *shedDepth, MaxQueueWait: *maxQueueWait,
		DefaultDeadline: *deadline, BrownoutDepth: *brownout, BrownoutHold: *brownHold,
	}
	reg := core.NewRegistry()
	// dets remembers each served detector for post-registration cascade
	// calibration; gates carries gates recovered from v3 artifacts.
	dets := make(map[string]core.Detector)
	gates := make(map[string]*cascade.Gate)

	switch {
	case *load != "":
		// Serving mode: load pre-trained artifacts, zero training at boot.
		for _, spec := range strings.Split(*load, ",") {
			name, path := splitModelSpec(spec)
			start := time.Now()
			det, gate, err := loadArtifact(path, *cascOn)
			if err != nil {
				log.Fatal("anomalyd: ", err)
			}
			// int8 artifacts come back quantized already; -quantize converts
			// fp32 artifacts at load so mixed fleets can be forced to int8.
			if *quantize && det.Precision() != core.PrecisionInt8 {
				if det, err = core.QuantizeDetector(det); err != nil {
					log.Fatal("anomalyd: ", err)
				}
			}
			if err := reg.Add(name, det, cfg); err != nil {
				log.Fatal("anomalyd: ", err)
			}
			dets[name], gates[name] = det, gate
			log.Printf("loaded %s (%s, %s) from %s in %s",
				name, det.Approach(), det.Precision(), path, time.Since(start).Round(time.Millisecond))
		}
	default:
		// Training modes: -train-out saves and exits; otherwise the trained
		// detector is served as the default model (the pre-artifact behavior).
		log.Printf("training %s detector on %s (%d jobs)...", *approach, *workflow, *trainN)
		det, report, err := core.Train(core.Options{
			Approach:      core.Approach(*approach),
			Workflow:      flowbench.Workflow(*workflow),
			Model:         *model,
			TrainSize:     *trainN,
			PretrainSteps: *preSteps,
			Epochs:        *epochs,
			Debias:        *debias,
			Seed:          *seed,
		})
		if err != nil {
			log.Fatal("anomalyd: ", err)
		}
		log.Printf("detector ready: %d params, held-out %s", report.Params, report.Test)
		if *quantize {
			if det, err = core.QuantizeDetector(det); err != nil {
				log.Fatal("anomalyd: ", err)
			}
			// The held-out metrics above were measured on the fp32 weights
			// inside Train; what saves/serves from here on is int8. For
			// metrics measured on the quantized detector itself, run
			// loadlab -load <artifact> -quantize: it prints AUC and trace F1
			// for the int8 detector.
			log.Print("detector quantized to int8 (integer inference path; held-out metrics above are the fp32 model's)")
		}
		if *trainOut != "" {
			// A gate fitted here ships inside the artifact, so -load re-arms
			// the cascade without refitting (thresholds are calibrated against
			// this exact detector's verdicts).
			var gate *cascade.Gate
			if *cascOn {
				ds := flowbench.Generate(flowbench.Workflow(*workflow), *seed)
				gate, err = core.FitCascade(det, cascade.Config{TargetRecall: *cascRecall}, ds.Train)
				if err != nil {
					log.Fatal("anomalyd: ", err)
				}
				log.Printf("cascade calibrated: ngram gate, target recall %.3f (%d calibration positives)",
					gate.TargetRecall(), gate.Positives())
			}
			if err := core.SaveDetectorFile(*trainOut, det, gate); err != nil {
				log.Fatal("anomalyd: ", err)
			}
			log.Printf("artifact written to %s; serve it with: anomalyd -load %s", *trainOut, *trainOut)
			return
		}
		if err := reg.Add(core.DefaultModel, det, cfg); err != nil {
			log.Fatal("anomalyd: ", err)
		}
		dets[core.DefaultModel] = det
	}

	// Cascade arming: an explicit -cascade fits fresh gates against each
	// served detector's own verdicts on the training split; otherwise any
	// gate that traveled inside a v3 artifact re-arms as saved. The gate is
	// also the model's brownout tier, so -brownout fits one, as -cascade
	// would, for every model that would otherwise have none.
	var ds *flowbench.Dataset
	for _, name := range reg.Names() {
		g, from := gates[name], "artifact"
		if *cascOn || (g == nil && *brownout > 0) {
			if ds == nil {
				ds = flowbench.Generate(flowbench.Workflow(*workflow), *seed)
			}
			var err error
			if g, err = core.FitCascade(dets[name], cascade.Config{TargetRecall: *cascRecall}, ds.Train); err != nil {
				log.Fatal("anomalyd: ", err)
			}
			from = fmt.Sprintf("fit, %d calibration positives", g.Positives())
		}
		if g == nil {
			continue
		}
		if err := reg.SetCascade(name, g); err != nil {
			log.Fatal("anomalyd: ", err)
		}
		log.Printf("cascade armed on %s: ngram gate, target recall %.3f (%s)", name, g.TargetRecall(), from)
	}
	if *brownout > 0 {
		log.Printf("brownout armed: degrade to the cascade gate at queue depth %d", *brownout)
	}

	// Signals are only captured once there is something to wind down.
	// Installing the handler before a minutes-long training phase would
	// swallow Ctrl-C and make the process unkillable until training ends.
	// On the signal, restore its default (a second one kills the process).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	signalled := make(chan struct{})
	context.AfterFunc(ctx, func() { stop(); log.Print("shutting down..."); close(signalled) })

	handler := core.NewServerRegistry(reg)
	handler.SetInstance(*instance)
	var root http.Handler = handler
	if *faultsSpec != "" {
		fc, err := faults.Parse(*faultsSpec)
		if err != nil {
			log.Fatal("anomalyd: ", err)
		}
		inj := faults.New(fc)
		root = inj.Wrap(handler)
		inj.Arm()
		log.Printf("fault injection armed: %s", *faultsSpec)
	}

	// The tail loop ends on the signal, so the HTTP shutdown need not wait.
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		if *tail != "" {
			tailLog(ctx, handler, *tail, *tailPoll, *strict)
		}
	}()

	log.Printf("listening on %s, models %v (max batch %d)", *addr, reg.Names(), *maxBatch)
	if err := handler.ListenAndServe(ctx, *addr, root); err != nil {
		log.Fatal("anomalyd: ", err)
	}
	<-tailDone
	<-signalled
	log.Print("bye")
}

// loadArtifact loads one detector artifact. With refit set (-cascade, which
// fits a fresh gate for every served model) a saved gate this build cannot
// rebuild — one an older build fitted with the retired pca or iforest
// scorers — is dropped with a log line instead of failing the load: the
// detector sections are intact and the saved gate would be replaced anyway.
func loadArtifact(path string, refit bool) (core.Detector, *cascade.Gate, error) {
	det, gate, err := core.LoadDetectorFile(path)
	if err != nil && refit && det != nil {
		log.Printf("anomalyd: dropping the saved gate, -cascade fits a fresh one: %v", err)
		return det, nil, nil
	}
	return det, gate, err
}

// splitModelSpec parses one -load entry: "name=path" serves path under name;
// a bare path serves under the file's base name without extension.
func splitModelSpec(spec string) (name, path string) {
	if eq := strings.IndexByte(spec, '='); eq >= 0 {
		return spec[:eq], spec[eq+1:]
	}
	base := filepath.Base(spec)
	if ext := filepath.Ext(base); ext != "" {
		base = strings.TrimSuffix(base, ext)
	}
	return base, spec
}

// tailLog follows path like `tail -f`, feeding appended lines through the
// server's streaming monitor until ctx is cancelled. Alerts are logged and
// published to /v1/alerts subscribers.
func tailLog(ctx context.Context, srv *core.Server, path string, poll time.Duration, strict bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Printf("anomalyd: tail: %v", err)
		return
	}
	defer f.Close()
	log.Printf("tailing %s (poll %s)", path, poll)
	consoleSink := core.SinkFuncs{
		OnAlert: func(a core.Alert) {
			log.Printf("ALERT trace=%d node=%d %s [%s]", a.Job.TraceID, a.Job.NodeIndex, a.Result, a.Line)
		},
		OnTrace: func(v core.TraceVerdict) {
			log.Printf("TRACE FLAGGED trace=%d anomalous=%d/%d (%.0f%%)",
				v.TraceID, v.Anomalous, v.Jobs, 100*v.Fraction())
		},
	}
	report, err := srv.MonitorIngest(ctx, &follower{ctx: ctx, f: f, poll: poll}, strict, consoleSink)
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("anomalyd: tail: %v", err)
	}
	log.Printf("tail done: %d processed, %d alerts, %d malformed, %d traces flagged",
		report.Processed, report.Alerts, report.Malformed, report.FlaggedTraces)
}

// follower turns a growing file into a blocking reader: at end-of-file it
// polls for appended data instead of returning io.EOF, until ctx is done.
type follower struct {
	ctx  context.Context
	f    *os.File
	poll time.Duration
}

func (fr *follower) Read(p []byte) (int, error) {
	for {
		n, err := fr.f.Read(p)
		if n > 0 {
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		select {
		case <-fr.ctx.Done():
			return 0, io.EOF
		case <-time.After(fr.poll):
		}
	}
}
