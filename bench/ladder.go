package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/logparse"
	"repro/internal/prompt"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// span is one timed call into a layer's exported entry point. Parent is the
// span of the enclosing depth for the same request, or -1 for the outermost.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds spans in memory until the run ends. A nil recorder records
// nothing, which is the untraced side of the overhead comparison.
type recorder struct {
	t0    time.Time
	spans []span
}

// ladderReps is how many times each depth is called on each input; the span
// is the fastest call. One call's time moves by a quarter with garbage
// collection and whatever else the machine is doing, more than most layers'
// self time; the fastest of three is what the call costs.
const ladderReps = 3

// time calls fn ladderReps times, records the fastest call as one span and
// returns the span's id. A nil recorder makes the same calls untimed and
// returns -1.
func (r *recorder) time(layer, op string, req, parent int, fn func()) int {
	if r == nil {
		for i := 0; i < ladderReps; i++ {
			fn()
		}
		return -1
	}
	best := span{ID: len(r.spans), Parent: parent, Req: req, Layer: layer, Op: op}
	for i := 0; i < ladderReps; i++ {
		start := time.Since(r.t0)
		fn()
		end := time.Since(r.t0)
		if i == 0 || end-start < time.Duration(best.End-best.Start) {
			best.Start, best.End = int64(start), int64(end)
		}
	}
	r.spans = append(r.spans, best)
	return best.ID
}

// selfTimes gives each layer's self time: the sum over its spans of the
// span's duration minus the durations of its child spans. The ladder runs
// every depth as its own call on the same input, so a child's duration stands
// for the part of the parent's interval it covers.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Layer] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return self
}

// ladderResult is what the traced ladder measured over its lines.
type ladderResult struct {
	lines, requests int
	spans           []span
	self            map[string]time.Duration
	outer           time.Duration            // sum of the outermost spans
	traced          time.Duration            // wall of the recorded passes
	untraced        time.Duration            // wall of the same passes without a recorder
	ops             map[string]time.Duration // sum of span durations by op name
	kernels         kernelTimes
	forwardCalls    int
	forwardMallocs  uint64        // heap allocations over forwardCalls model forwards
	altForward      time.Duration // the same forwards on the other precision
	prefixBuild     time.Duration
	prefixTokens    int
	suffixTokens    int
	passed, gated   int // lines the gate passed on / scored
}

// ladderRun is the state one walk down the depths needs.
type ladderRun struct {
	st     *stack
	s      *stream
	client *http.Client
	ws     *tensor.Workspace
	rp     *replay
	res    *ladderResult
	inputs [][][]int // token ids of every forward call of the recorded passes

	// ICL only. The ladder has a one-worker server of its own: the workload's
	// server classifies a post's chunks on all workers at once, and a parent
	// that overlaps its children has no self time to speak of.
	srv     *served
	pc      *icl.PromptCache
	kv      *transformer.KVCache
	choices []int
}

// ladder pushes the workload's own first lines, in the request shapes the
// workload sends, serially through every depth's public entry point on a warm
// and otherwise idle process. Each request is walked twice, once recorded and
// once not, alternating which goes first.
func (st *stack) ladder(s *stream, client *http.Client) (*ladderResult, error) {
	res := &ladderResult{ops: map[string]time.Duration{}}
	var reqs []*request
	for i := range s.reqs {
		if res.lines >= st.w.ladder {
			break
		}
		reqs = append(reqs, &s.reqs[i])
		res.lines += s.reqs[i].n
	}
	res.requests = len(reqs)

	l := &ladderRun{st: st, s: s, client: client, ws: tensor.GetWorkspace(), res: res}
	defer tensor.PutWorkspace(l.ws)
	walk := l.walkDetect
	l.rp = newReplay(st.model.Config, false, 0)
	if st.w.icl {
		one := st.cfg
		one.Workers = 1
		srv, err := st.boot("ladder", one)
		if err != nil {
			return nil, err
		}
		defer srv.close()
		prefix := append([]int{tokenizer.BOS}, st.tok.Encode(prompt.FewShotPrefix(st.shots), false)...)
		start := time.Now()
		l.kv = st.model.InferKVCache(prefix)
		res.prefixBuild, res.prefixTokens = time.Since(start), len(prefix)
		l.srv, l.pc = srv, st.icl.NewPromptCache(st.shots)
		l.choices = []int{st.tok.ID(logparse.LabelNormal), st.tok.ID(logparse.LabelAbnormal)}
		l.rp = newReplay(st.model.Config, true, len(prefix))
		walk = l.walkMonitor
	}

	// Warm every depth (arenas, connections) before timing anything.
	if err := walk(nil, 0, reqs[0]); err != nil {
		return nil, err
	}
	rec := &recorder{t0: time.Now()}
	for i, r := range reqs {
		for pass := 0; pass < 2; pass++ {
			start := time.Now()
			if (pass == 0) == (i%2 == 0) {
				if err := walk(rec, i, r); err != nil {
					return nil, err
				}
				res.traced += time.Since(start)
			} else {
				if err := walk(nil, i, r); err != nil {
					return nil, err
				}
				res.untraced += time.Since(start)
			}
		}
	}
	res.spans = rec.spans
	res.self = selfTimes(rec.spans)
	for _, sp := range rec.spans {
		d := time.Duration(sp.End - sp.Start)
		if sp.Parent < 0 {
			res.outer += d
		}
		res.ops[sp.Op] += d
	}

	// Outside the walk, so that neither shows up as tracing overhead: heap
	// allocations per forward call, and the same forwards on the model's
	// other precision.
	res.forwardCalls = len(l.inputs)
	before := mallocs()
	for _, in := range l.inputs {
		l.forward(st.model, in)
	}
	res.forwardMallocs = mallocs() - before
	if st.alt != nil {
		if st.w.icl {
			l.kv = st.alt.InferKVCache(append([]int{tokenizer.BOS}, st.tok.Encode(prompt.FewShotPrefix(st.shots), false)...))
		}
		start := time.Now()
		for _, in := range l.inputs {
			l.forward(st.alt, in)
		}
		res.altForward = time.Since(start)
	}
	return res, nil
}

// forward is the transformer depth: the model entry point the classifier or
// the ICL detector calls, on token ids already encoded.
func (l *ladderRun) forward(m *transformer.Model, seqs [][]int) {
	l.ws.Reset()
	if l.kv != nil {
		m.ScoreChoiceBatchWithCacheWS(l.kv, seqs, l.choices, l.ws)
	} else {
		m.ForwardClsBatchWS(seqs, l.ws)
	}
}

// innermost walks the two depths every workload ends in, under parent: the
// model forward on seqs, and below it the bare kernel calls that forward makes.
func (l *ladderRun) innermost(rec *recorder, id, parent int, seqs [][]int) {
	fwd := rec.time("transformer", "transformer.forward", id, parent, func() { l.forward(l.st.model, seqs) })
	lens := make([]int, len(seqs))
	for i, q := range seqs {
		lens[i] = len(q)
	}
	into := &kernelTimes{}
	if rec != nil {
		into = &l.res.kernels
		l.inputs = append(l.inputs, seqs)
	}
	rec.time("tensor", "tensor.replay", id, fwd, func() { l.rp.run(lens, into) })
}

// post sends one pre-built request and fails on anything but a 200.
func post(client *http.Client, base string, r *request) error {
	resp, err := client.Post(base+r.path, r.ctype, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sink json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
		return fmt.Errorf("ladder POST %s: %w", r.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ladder POST %s: %s", r.path, resp.Status)
	}
	return nil
}

// walkDetect walks one /v1/detect or /v1/detect/batch request down the SFT
// depths, outermost first, one span per depth.
func (l *ladderRun) walkDetect(rec *recorder, id int, r *request) error {
	st, ctx := l.st, context.Background()
	direct := st.replicas[0]
	var err error
	parent := -1
	if st.w.fleet {
		parent = rec.time("gateway", "gateway.forward", id, -1, func() { err = post(l.client, st.target, r) })
		if err != nil {
			return err
		}
	}
	http := rec.time("core.http", "http.detect", id, parent, func() { err = post(l.client, direct.url, r) })
	if err != nil {
		return err
	}
	sentences := make([]string, r.n)
	for i := range sentences {
		sentences[i] = l.s.lines[r.first+i].sentence
	}
	if r.kind == kindSingle {
		var dr core.DetectRequest
		if err := json.Unmarshal(r.body, &dr); err != nil {
			return err
		}
		var job flowbench.Job
		rec.time("logparse", "logparse.parse", id, http, func() { job, err = logparse.ParseLogLine(dr.LogLine) })
		if err != nil {
			return err
		}
		rec.time("logparse", "logparse.sentence", id, http, func() { sentences[0] = logparse.Sentence(job) })
	}
	eng := rec.time("core.engine", "engine.detect", id, http, func() { _, err = direct.srv.DetectContext(ctx, sentences) })
	if err != nil {
		return err
	}
	// What the engine hands the detector: distinct sentences the gate does
	// not answer itself.
	run := distinct(sentences)
	if st.gate != nil {
		var pass []string
		rec.time("cascade", "cascade.score", id, eng, func() { pass = passGate(st.gate, run) })
		if rec != nil {
			l.res.gated += len(run)
			l.res.passed += len(pass)
		}
		run = pass
	}
	if len(run) == 0 {
		return nil
	}
	det := rec.time("core.detector", "detector.batch", id, eng, func() { st.det.DetectBatch(run) })
	clf := rec.time("sft", "sft.predict", id, det, func() {
		l.ws.Reset()
		st.clf.PredictBatchWS(run, l.ws)
	})
	seqs := make([][]int, len(run))
	rec.time("tokenizer", "tokenizer.encode", id, clf, func() {
		for i, t := range run {
			seqs[i] = st.tok.Encode(t, true)
		}
	})
	l.innermost(rec, id, clf, seqs)
	return nil
}

// walkMonitor walks one /v1/monitor post down the ICL depths.
func (l *ladderRun) walkMonitor(rec *recorder, id int, r *request) error {
	st, ctx := l.st, context.Background()
	var err error
	http := rec.time("core.http", "http.monitor", id, -1, func() { err = post(l.client, l.srv.url, r) })
	if err != nil {
		return err
	}
	mon := rec.time("core.monitor", "monitor.ingest", id, http, func() {
		_, err = l.srv.srv.MonitorIngest(ctx, bytes.NewReader(r.body), false)
	})
	if err != nil {
		return err
	}
	raw := strings.Split(strings.TrimSuffix(string(r.body), "\n"), "\n")
	jobs := make([]flowbench.Job, len(raw))
	rec.time("logparse", "logparse.parse", id, mon, func() {
		for i, text := range raw {
			if jobs[i], err = logparse.ParseLogLine(text); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	sentences := make([]string, len(jobs))
	rec.time("logparse", "logparse.sentence", id, mon, func() {
		for i, j := range jobs {
			sentences[i] = logparse.Sentence(j)
		}
	})
	for lo := 0; lo < len(sentences); lo += st.cfg.MaxBatch {
		chunk := sentences[lo:min(lo+st.cfg.MaxBatch, len(sentences))]
		eng := rec.time("core.engine", "engine.detect", id, mon, func() { _, err = l.srv.srv.DetectContext(ctx, chunk) })
		if err != nil {
			return err
		}
		det := rec.time("core.detector", "detector.batch", id, eng, func() { st.det.DetectBatch(chunk) })
		clf := rec.time("icl", "icl.classify", id, det, func() {
			l.ws.Reset()
			st.icl.ClassifyBatchCachedWS(l.pc, chunk, l.ws)
		})
		suffixes := make([][]int, len(chunk))
		rec.time("tokenizer", "tokenizer.encode", id, clf, func() {
			for i, q := range chunk {
				suffixes[i] = st.tok.Encode(prompt.QuerySuffix(q), false)
			}
		})
		if rec != nil {
			for _, sfx := range suffixes {
				l.res.suffixTokens += len(sfx)
			}
		}
		l.innermost(rec, id, clf, suffixes)
	}
	return nil
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// distinct returns the sentences in first-seen order without repeats, as the
// engine's dedup does before inference.
func distinct(sentences []string) []string {
	seen := make(map[string]bool, len(sentences))
	out := make([]string, 0, len(sentences))
	for _, s := range sentences {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// passGate returns the sentences the stage-1 gate sends on to the transformer.
func passGate(g *cascade.Gate, sentences []string) []string {
	var pass []string
	for _, s := range sentences {
		score, parsed := g.ScoreSentence(s)
		if parsed && g.Decide(score) != cascade.PassThrough {
			continue
		}
		pass = append(pass, s)
	}
	return pass
}

// topLayers names the layers with the largest self time, as shares of the
// outermost span.
func (l *ladderResult) topLayers(n int) string {
	type row struct {
		name  string
		share float64
	}
	var rows []row
	for name, d := range l.self {
		rows = append(rows, row{name, float64(d) / float64(l.outer)})
	}
	sort.Slice(rows, func(i, k int) bool { return rows[i].share > rows[k].share })
	var parts []string
	for i, r := range rows {
		if i == n {
			break
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", r.name, 100*r.share))
	}
	return strings.Join(parts, ", ")
}

// writeTrace writes the spans under out/ beside the benchmark's sources.
func writeTrace(dir string, prov provenance, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, prov.Workload+".trace.json")
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
