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
// degrades batch detection to a calibrated PCA baseline under sustained
// saturation (responses carry "degraded": true). -faults arms a deterministic
// fault-injection campaign (see internal/faults) for chaos drills; see
// docs/RELIABILITY.md.
//
// -cascade arms two-stage inference: a calibrated cheap scorer (ngram — a
// supervised count table over the tokenizer's magnitude buckets — pca, or
// iforest) short-circuits confidently-normal lines in front of the
// transformer, always on (unlike brownout, which only engages under
// saturation). -cascade-recall sets the calibration target (default 0.995);
// per-model gating counters appear under "stats" in GET /v1/models. Gates
// fitted at training time travel inside the artifact (-train-out -cascade
// ngram) and re-arm automatically on -load; see docs/PERFORMANCE.md.
//
// With -load the daemon performs zero training steps at boot: each artifact
// (written by -train-out, sfttrain -save, or iclrun -save) is loaded into the
// model registry under its name (`name=path`, or the file's base name) and
// the first is the default route. Concurrent requests are micro-batched
// through a per-model coalescing worker pool; -max-batch and -workers tune
// it (see docs/API.md). With -tail the daemon also follows a
// growing log file (the paper's Section IV-C loop) through the default model.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, open SSE
// streams and the tail loop end, in-flight requests finish, and only then
// are the inference workers released.
package main

import (
	"context"
	"errors"
	"flag"
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
		brownout     = flag.Int("brownout", 0, "queue depth that engages brownout: /v1/detect/batch answers degraded from a calibrated PCA baseline until load recedes (0 = off)")
		brownHold    = flag.Duration("brownout-hold", 0, "how long the queue must stay saturated before brownout engages (0 = default 250ms)")
		faultsSpec   = flag.String("faults", "", `fault-injection campaign armed at listen, e.g. "seed=7,every=5,kinds=latency+error,window=10s:30s,path=/v1/" — chaos drills only`)
		cascScorer   = flag.String("cascade", "", "two-stage inference: stage-1 scorer (ngram, pca, or iforest) short-circuits confidently-normal lines before the transformer (empty = off)")
		cascRecall   = flag.Float64("cascade-recall", cascade.DefaultTargetRecall, "cascade calibration target: fraction of flagged calibration lines that must still reach the transformer")
		instance     = flag.String("instance", "", "replica name stamped on responses (X-Replica) and /metrics (repro_instance_info) when serving behind anomalygw")
	)
	flag.Parse()
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
			det, gate, err := core.LoadDetectorFileWithCascade(path)
			if err != nil {
				log.Fatal("anomalyd: ", err)
			}
			// int8 artifacts come back quantized already; -quantize converts
			// fp32 artifacts at load so mixed fleets can be forced to int8.
			if *quantize && core.DetectorPrecision(det) != core.PrecisionInt8 {
				if det, err = core.QuantizeDetector(det); err != nil {
					log.Fatal("anomalyd: ", err)
				}
			}
			if err := reg.Add(name, det, cfg); err != nil {
				log.Fatal("anomalyd: ", err)
			}
			dets[name], gates[name] = det, gate
			log.Printf("loaded %s (%s, %s) from %s in %s",
				name, det.Approach(), core.DetectorPrecision(det), path, time.Since(start).Round(time.Millisecond))
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
			// inside Train; what saves/serves from here on is int8. Use
			// sfttrain/iclrun -quantize for metrics measured on the
			// quantized detector itself.
			log.Print("detector quantized to int8 (integer inference path; held-out metrics above are the fp32 model's)")
		}
		if *trainOut != "" {
			// A gate fitted here ships inside the artifact, so -load re-arms
			// the cascade without refitting (thresholds are calibrated against
			// this exact detector's verdicts).
			var gate *cascade.Gate
			if *cascScorer != "" {
				ds := flowbench.Generate(flowbench.Workflow(*workflow), *seed)
				gate, err = core.FitCascade(det, cascade.Config{
					Scorer: *cascScorer, TargetRecall: *cascRecall, Seed: *seed,
				}, ds.Train)
				if err != nil {
					log.Fatal("anomalyd: ", err)
				}
				log.Printf("cascade calibrated: %s gate, target recall %.3f (%d calibration positives)",
					gate.Scorer(), gate.TargetRecall(), gate.Positives())
			}
			if err := core.SaveDetectorFileWithCascade(*trainOut, det, gate); err != nil {
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
	// gate that traveled inside a v3 artifact re-arms as saved.
	if *cascScorer != "" {
		ds := flowbench.Generate(flowbench.Workflow(*workflow), *seed)
		ccfg := cascade.Config{Scorer: *cascScorer, TargetRecall: *cascRecall, Seed: *seed}
		for _, name := range reg.Names() {
			g, err := core.FitCascade(dets[name], ccfg, ds.Train)
			if err != nil {
				log.Fatal("anomalyd: ", err)
			}
			if err := reg.SetCascade(name, g); err != nil {
				log.Fatal("anomalyd: ", err)
			}
			log.Printf("cascade armed on %s: %s gate, target recall %.3f (%d calibration positives)",
				name, g.Scorer(), g.TargetRecall(), g.Positives())
		}
	} else {
		for name, g := range gates {
			if g == nil {
				continue
			}
			if err := reg.SetCascade(name, g); err != nil {
				log.Fatal("anomalyd: ", err)
			}
			log.Printf("cascade armed on %s from artifact: %s gate, target recall %.3f",
				name, g.Scorer(), g.TargetRecall())
		}
	}

	// Brownout needs somewhere to degrade to: one cheap calibrated baseline,
	// fitted on the training workflow's synthetic split, shared by every
	// served model (scoring is read-only).
	if *brownout > 0 {
		ds := flowbench.Generate(flowbench.Workflow(*workflow), *seed)
		fb, err := core.FitFallback("pca", ds.Train, *seed)
		if err != nil {
			log.Fatal("anomalyd: ", err)
		}
		for _, name := range reg.Names() {
			if err := reg.SetFallback(name, fb); err != nil {
				log.Fatal("anomalyd: ", err)
			}
		}
		log.Printf("brownout armed: degrade to pca baseline at queue depth %d", *brownout)
	}

	// Signals are only captured once there is something to wind down.
	// Installing the handler before a minutes-long training phase would
	// swallow Ctrl-C and make the process unkillable until training ends.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler := core.NewServerRegistry(reg)
	if *instance != "" {
		handler.SetInstance(*instance)
	}
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

	tailDone := make(chan struct{})
	if *tail == "" {
		close(tailDone)
	} else {
		go func() {
			defer close(tailDone)
			tailLog(ctx, handler, *tail, *tailPoll, *strict)
		}()
	}

	log.Printf("listening on %s, models %v (max batch %d)", *addr, reg.Names(), *maxBatch)
	srv := &http.Server{Addr: *addr, Handler: root}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		handler.Close()
		log.Fatal("anomalyd: ", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop the SSE streams and tail loop so Shutdown's
	// wait on active connections can complete, let in-flight requests
	// finish, then release the inference workers. log.Fatal here would skip
	// all of this and leak the worker pool.
	log.Print("shutting down...")
	stop()
	handler.CloseStreams()
	<-tailDone
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("anomalyd: shutdown: %v", err)
	}
	handler.Close()
	log.Print("bye")
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
