package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/gateway"
	"repro/internal/icl"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/prompt"
	"repro/internal/sft"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// stack is everything one workload runs against, with a handle on every
// layer so the ladder can call each depth's entry point directly. It rebuilds
// core.Train's recipe from the exported pieces because core.Train returns
// only the outermost Detector.
type stack struct {
	w workload

	tok   *tokenizer.Tokenizer
	model *transformer.Model
	clf   *sft.Classifier // SFT workloads
	icl   *icl.Detector   // ICL workload
	shots []prompt.Example
	det   core.Detector // what the servers serve: no gate in front, int8 for ICL
	// alt is the model on its other precision (int8 for SFT, fp32 for ICL),
	// built only for the traced ladder. The ICL copy is taken before LoRA
	// fine-tuning, which Clone requires; merged adapters cost nothing at
	// inference, so its forward costs what the served model's fp32 form would.
	alt  *transformer.Model
	gate *cascade.Gate // nil when the workload runs cascade off

	cfg      core.BatchConfig
	replicas []*served        // one direct server, or the fleet's two
	gw       *gateway.Gateway // fleet only
	gwHTTP   *http.Server
	target   string // base URL the generator drives
}

// served is one core.Server on a loopback listener.
type served struct {
	srv *core.Server
	hs  *http.Server
	url string
}

func (s *served) close() {
	s.hs.Close()
	s.srv.Close()
}

// setUp trains the workload's detector, fits its gate and boots its servers:
// everything between process start and the first warm-up request.
func setUp(w workload, trace bool) (*stack, error) {
	st := &stack{w: w}
	train := flowbench.Generate(flowbench.Genome, trainSeed)
	if w.icl {
		if err := st.trainICL(train, trace); err != nil {
			return nil, err
		}
	} else {
		st.trainSFT(train, trace)
	}
	if w.cascade {
		// Calibrate against the detector's own verdicts on the training
		// split, as anomalyd -cascade does, but on a capped slice: every
		// calibration job costs one transformer forward.
		g, err := core.FitCascade(st.det, cascade.Config{Seed: trainSeed}, train.Train[:cascadeCalibration])
		if err != nil {
			return nil, fmt.Errorf("fit cascade: %w", err)
		}
		st.gate = g
	}

	workers := runtime.GOMAXPROCS(0)
	n := 1
	if w.fleet {
		// Same total workers as the direct case, so fleet minus direct is
		// the gateway and not a capacity change.
		n, workers = 2, max(1, workers/2)
	}
	st.cfg = core.BatchConfig{MaxBatch: w.maxBatch, FlushDelay: 2 * time.Millisecond, Workers: workers}
	if w.shed {
		st.cfg.ShedQueueDepth = shedDepth
	}
	var urls []string
	for i := 0; i < n; i++ {
		s, err := st.boot(fmt.Sprintf("r%d", i), st.cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.replicas = append(st.replicas, s)
		urls = append(urls, s.url)
	}
	st.target = urls[0]
	if w.fleet {
		gw, err := gateway.New(context.Background(), gateway.Config{Replicas: urls, BreakerThreshold: breakersOff})
		if err != nil {
			st.close()
			return nil, err
		}
		st.gw = gw
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		st.gwHTTP = &http.Server{Handler: gw}
		go st.gwHTTP.Serve(ln)
		st.target = "http://" + ln.Addr().String()
	}
	return st, nil
}

// breakersOff is a consecutive-failure threshold no run reaches. At the
// default (5) the gateway counts the cancelled loser of a won hedge as a
// failure of its replica, opens that replica's circuit for a second and
// answers 503 meanwhile (ROADMAP item 3): operations would fail on unchanged
// code. Everything else about the gateway is at its defaults, and
// gateway.breaker_open still reports attempts a breaker refused.
const breakersOff = 1 << 30

// cascadeCalibration is how many training jobs the gate is calibrated on.
const cascadeCalibration = 1500

// boot serves st.det (behind st.gate when armed) on a fresh loopback port.
func (st *stack) boot(instance string, cfg core.BatchConfig) (*served, error) {
	reg := core.NewRegistry()
	if err := reg.Add(core.DefaultModel, st.det, cfg); err != nil {
		return nil, err
	}
	if st.gate != nil {
		if err := reg.SetCascade(core.DefaultModel, st.gate); err != nil {
			reg.Close()
			return nil, err
		}
	}
	srv := core.NewServerRegistry(reg)
	srv.SetInstance(instance)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String()}
	go s.hs.Serve(ln)
	return s, nil
}

func (st *stack) close() {
	if st.gwHTTP != nil {
		st.gwHTTP.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, s := range st.replicas {
		s.close()
	}
}

func corpusFor(train []flowbench.Job) []string {
	return append(pretrain.BuildCorpus(pretrain.DefaultCorpus()), logparse.Corpus(train)...)
}

func (st *stack) trainSFT(full *flowbench.Dataset, trace bool) {
	b := sftBudget
	ds := full.Subsample(b.train, 0, 0, trainSeed+1)
	corpus := corpusFor(ds.Train)
	st.tok = tokenizer.Build(corpus)
	st.model = models.MustGet(b.model).Build(st.tok.VocabSize())
	pretrain.MLM(st.model, st.tok, corpus, pretrain.Options{Steps: b.pretrain, LR: 3e-3, Seed: trainSeed})
	st.clf = sft.NewClassifier(st.model, st.tok)
	cfg := sft.DefaultTrainConfig()
	cfg.Epochs, cfg.LR, cfg.Seed = b.epochs, b.lr, trainSeed
	sft.Train(st.clf, sft.JobExamples(ds.Train), nil, cfg)
	st.det = core.NewSFTDetector(st.clf)
	if trace {
		st.alt = st.model.Clone()
		st.alt.QuantizeInt8(0)
	}
}

func (st *stack) trainICL(full *flowbench.Dataset, trace bool) error {
	b := iclBudget
	ds := full.Subsample(b.train, 0, 0, trainSeed+1)
	corpus := corpusFor(ds.Train)
	st.tok = tokenizer.Build(corpus)
	st.model = models.MustGet(b.model).Build(st.tok.VocabSize())
	pretrain.CLM(st.model, st.tok, corpus, pretrain.Options{Steps: b.pretrain, LR: 3e-3, Seed: trainSeed})
	if trace {
		st.alt = st.model.Clone()
	}
	st.icl = icl.NewDetector(st.model, st.tok)
	ft := icl.DefaultFineTuneConfig()
	ft.Steps, ft.ExamplesPerPrompt, ft.Seed = b.lora, b.perPrompt, trainSeed
	icl.FineTune(st.icl, ds.Train, ft)
	st.shots = icl.PromptExamples(icl.SelectExamples(ds.Train, b.shots, icl.Mixed, trainSeed))
	det, err := core.QuantizeDetector(core.NewICLDetector(st.icl, st.shots))
	if err != nil {
		return err
	}
	st.det = det
	// The detector builds its prefix KV cache on first use; build it here so
	// it is set-up and not the first warm-up request.
	det.DetectSentence(st.shots[0].Sentence)
	return nil
}
