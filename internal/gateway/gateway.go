// Package gateway is the replicated-serving tier over N anomalyd replicas
// (ROADMAP item 9): a front core.Server whose every model the replicas
// compute. The front runs the single-node serving code once — dedup,
// admission, deadlines, the monitor loop and its trace tracker, SSE,
// /v1/models and /metrics — and the replicas are stateless batch compute
// behind /v1/detect/batch. Every line of a trace meets one tracker, the
// front's, so fleet verdicts equal a single node's by construction. This is
// Clipper's split (Crankshaw et al., NSDI 2017): one stateful frontend over
// stateless model containers.
//
// The front reads its configuration from the fleet: New registers each model
// the replicas list under its name, default flag, approach and precision,
// with the replicas' summed Workers, so a front worker is a replica worker
// slot. Each batch a front worker forms goes to one replica (pool.detect):
// the least-outstanding one whose breaker admits it, hedged against the next,
// with retries and hedges drawing on one budget. A replica's 429, or a
// degraded answer from its brownout tier, moves the batch on, and a batch
// that every replica refused becomes a 429: the front sets no BrownoutDepth
// and holds no gate, so it never answers degraded itself. Only a transport
// error, a 5xx or a forward unanswered after attemptTimeout counts against a
// replica's breaker, and only an open breaker takes a replica out of
// routing: a saturated replica is queued for, not ejected.
//
// The cascade gate stays on the replicas. It gates each sentence on its own,
// so it answers the same on either side of the hop. So does the token memo,
// and the front does not memoize: core's engine memoizes a model verdict by
// the line's token sequence, behind the gate, because the gate parses the
// raw string and two lines with one token sequence can take different gate
// routes. What a front receives is the replicas' answers, gate verdicts
// among them, and those are not a function of the tokens; core memoizes
// only its own in-process SFT and ICL detectors.
//
// The cost of the split: the front is the fleet's one stateful process, and a
// front restart loses its trace windows as a replica restart did when the
// replicas held them.
//
//repro:requestpath
package gateway

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// Config names the fleet. Everything else is read from the replicas or fixed
// below.
type Config struct {
	// Replicas are the anomalyd base URLs ("http://host:port").
	Replicas []string
	// BreakerThreshold is how many failed forwards in a row (transport errors
	// and 5xx) open a replica's circuit (default 5).
	BreakerThreshold int
}

const (
	// maxAttempts is how many replicas one batch may be sent to.
	maxAttempts = 3
	// A batch grows its hedge after the front's forward p99, clamped to
	// [hedgeMin, hedgeMax].
	hedgeMin, hedgeMax = 5 * time.Millisecond, 250 * time.Millisecond
	// attemptTimeout bounds one forward. A replica that has not answered by
	// then — hung, stopped, or cut off without a reset — has failed the
	// attempt, and its breaker counts it: with the hedge budget spent, nothing
	// else would stop the front's workers from waiting on it forever.
	attemptTimeout = 4 * hedgeMax
	// The retry budget: 32 tokens, and each batch deposits a tenth of one.
	budgetCapacity, budgetRatio = 32, 0.1
	// breakerCooldown is how long an open circuit waits before one probe.
	breakerCooldown = time.Second
	// refusedRetryAfter is the hint of a shed no refusing replica gave one for.
	refusedRetryAfter = 500 * time.Millisecond
	// discoverTimeout bounds New's read of the replicas' GET /v1/models.
	discoverTimeout = 5 * time.Second
	// maxBody caps a replica's reply, as core caps a request's JSON body.
	maxBody = 32 << 20
)

// Gateway is the fleet front: a core.Server over remote models. Serve it
// like any http.Handler; Close drains it.
type Gateway struct {
	*core.Server
	pool *pool
}

// New reads the fleet's models from the replicas' GET /v1/models and builds
// the front over them. It fails when no replica lists a model. ctx is the
// root every forward runs under — a batch serves several callers, so none of
// their contexts can be its own — so pass the process context.
func New(ctx context.Context, cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: no replicas configured")
	}
	p := &pool{ctx: ctx, client: http.DefaultClient, budget: resilience.NewBudget(budgetCapacity, budgetRatio)}
	for _, u := range cfg.Replicas {
		p.replicas = append(p.replicas, &replica{url: u, breaker: resilience.NewBreaker(cfg.BreakerThreshold, breakerCooldown)})
	}
	models, err := p.fleetModels()
	if err != nil {
		return nil, err
	}
	reg := core.NewRegistry()
	g := &Gateway{Server: core.NewServerRegistry(reg), pool: p}
	for _, m := range models {
		det := &remote{pool: p, reg: reg, model: m.Name, uri: "/v1/detect/batch?model=" + url.QueryEscape(m.Name),
			approach: m.Approach, precision: m.Precision}
		err := reg.Add(m.Name, det, core.BatchConfig{
			MaxBatch: m.MaxBatch, Workers: m.Workers, MaxRequest: m.MaxRequest, ShedQueueDepth: m.ShedQueueDepth,
		})
		if err == nil && m.Default {
			err = reg.SetDefault(m.Name)
		}
		if err != nil {
			g.Close()
			return nil, err
		}
	}
	return g, nil
}

// ServeHTTP serves the front. GET /metrics appends the pool's repro_gateway_*
// samples to the front's exposition: no family is in both, so the two make
// one valid exposition.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.Server.ServeHTTP(w, r)
	if r.URL.Path == "/metrics" && r.Method == http.MethodGet {
		w.Write(g.pool.exposition(g.Registry().Info()))
	}
}

// pool is the fleet behind the front: its replicas, the one budget retries
// and hedges share, and the counters /metrics exports.
type pool struct {
	ctx      context.Context // New's: the root of every forward
	client   *http.Client
	replicas []*replica
	budget   *resilience.Budget

	retries, hedges, hedgeWins, shed, breakerOpen atomic.Int64
}

// replica is one anomalyd behind the front.
type replica struct {
	url         string
	breaker     *resilience.Breaker
	outstanding atomic.Int64 // forwards in flight
	forwarded   atomic.Int64 // batches it answered
	ejections   atomic.Int64 // times its breaker opened
}

// fleetModels folds the replicas' GET /v1/models into the front's models: one
// per name, with the smallest replica's batch sizes, the replicas' summed
// Workers, and their summed ShedQueueDepth (0 if any of them does not shed).
func (p *pool) fleetModels() ([]core.ModelInfo, error) {
	ctx, cancel := context.WithTimeout(p.ctx, discoverTimeout)
	defer cancel()
	var out []core.ModelInfo
	var errs []error
	for _, rep := range p.replicas {
		var mr core.ModelsResponse
		if err := p.getJSON(ctx, rep.url+"/v1/models", &mr); err != nil {
			errs = append(errs, err)
			continue
		}
		for _, m := range mr.Models {
			i := slices.IndexFunc(out, func(f core.ModelInfo) bool { return f.Name == m.Name })
			if i < 0 {
				out = append(out, m)
				continue
			}
			f := &out[i]
			f.Default = f.Default || m.Default
			f.MaxBatch, f.MaxRequest = min(f.MaxBatch, m.MaxBatch), min(f.MaxRequest, m.MaxRequest)
			f.Workers += m.Workers
			if f.ShedQueueDepth > 0 && m.ShedQueueDepth > 0 {
				f.ShedQueueDepth += m.ShedQueueDepth
			} else {
				f.ShedQueueDepth = 0
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gateway: no replica listed a model: %w", errors.Join(errs...))
	}
	return out, nil
}

func (p *pool) getJSON(ctx context.Context, u string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(v)
}

// order is the replicas by preference: those whose circuit is open and still
// cooling down last — once the cooldown has passed, a replica competes again
// and its next batch is the breaker's probe — then least outstanding first,
// ties in configuration order.
func (p *pool) order() []*replica {
	type ranked struct {
		rep  *replica
		open bool
		load int64
	}
	rs := make([]ranked, len(p.replicas))
	for i, rep := range p.replicas {
		rs[i] = ranked{rep, rep.breaker.State() == resilience.Open, rep.outstanding.Load()}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int {
		if a.open != b.open {
			if a.open {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.load, b.load)
	})
	out := make([]*replica, len(rs))
	for i, r := range rs {
		out[i] = r.rep
	}
	return out
}

// detect sends one batch of sentences to the fleet: to at most maxAttempts
// replicas in preference order, each one at most once. An attempt is hedged
// after delay against the next replica, and every attempt after the first
// draws on the retry budget. When every replica tried refused the batch, it
// fails with a *core.OverloadedError carrying the smallest Retry-After hint;
// otherwise with the last attempt's error.
func (p *pool) detect(uri string, sentences []string, delay time.Duration) ([]core.Result, error) {
	body, err := json.Marshal(core.BatchRequest{Sentences: sentences})
	if err != nil {
		return nil, err
	}
	n := len(sentences)
	p.budget.Attempt()
	order := p.order()
	send := func(rep *replica) func(context.Context) ([]core.Result, error) {
		return func(ctx context.Context) ([]core.Result, error) { return p.forwardOnce(ctx, rep, uri, body, n) }
	}
	refusedAll, hint := true, time.Duration(0)
	for i, tries := 0, min(maxAttempts, len(order)); i < tries; i++ {
		if i > 0 {
			if !p.budget.Withdraw() {
				break
			}
			p.retries.Add(1)
		}
		var res []core.Result
		if i+1 < tries {
			var hr resilience.HedgeResult
			res, hr, err = resilience.Hedged(p.ctx, delay, p.budget, send(order[i]), send(order[i+1]))
			if hr.Launched {
				p.hedges.Add(1)
				i++ // the hedge's replica has had the batch too
			}
			if hr.WonByHedge {
				p.hedgeWins.Add(1)
			}
		} else {
			res, err = p.forwardOnce(p.ctx, order[i], uri, body, n)
		}
		if err == nil {
			return res, nil
		}
		var oe *core.OverloadedError
		if !errors.As(err, &oe) {
			refusedAll = false
		} else if oe.RetryAfter > 0 && (hint == 0 || oe.RetryAfter < hint) {
			hint = oe.RetryAfter
		}
	}
	if !refusedAll {
		return nil, err
	}
	p.shed.Add(1)
	if hint == 0 {
		hint = refusedRetryAfter
	}
	return nil, &core.OverloadedError{RetryAfter: hint}
}

// forwardOnce sends one batch to one replica. A refusal — a 429, or an answer
// from the replica's brownout tier — is an *core.OverloadedError with the
// replica's hint. Only a transport error, a 5xx or an answer later than
// attemptTimeout counts against the replica's breaker; an attempt whose
// caller gave up first, as a hedge race does to its loser, counts neither way.
func (p *pool) forwardOnce(ctx context.Context, rep *replica, uri string, body []byte, n int) ([]core.Result, error) {
	if !rep.breaker.Allow() {
		p.breakerOpen.Add(1)
		return nil, resilience.ErrCircuitOpen
	}
	rep.outstanding.Add(1)
	defer rep.outstanding.Add(-1)
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, rep.url+uri, bytes.NewReader(body))
	if err != nil {
		rep.breaker.Abandon()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var br core.BatchResponse
	resp, err := p.client.Do(req)
	if err == nil {
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&br)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) // so the connection is reused
		resp.Body.Close()
	}
	switch {
	case err != nil && ctx.Err() != nil:
		rep.breaker.Abandon()
		return nil, err
	case err != nil || resp.StatusCode >= 500:
		if rep.breaker.Record(false) {
			rep.ejections.Add(1)
		}
		switch {
		case err == nil:
			err = fmt.Errorf("gateway: replica %s: %s", rep.url, resp.Status)
		case actx.Err() != nil:
			// The replica's lateness, not the callers' deadline: an upstream
			// failure, not a 504.
			err = fmt.Errorf("gateway: replica %s: no answer within %v", rep.url, attemptTimeout)
		}
		return nil, err
	}
	rep.breaker.Record(true)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, &core.OverloadedError{RetryAfter: resilience.RetryAfterHint(resp)}
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("gateway: replica %s: %s", rep.url, resp.Status)
	case br.Degraded:
		return nil, &core.OverloadedError{}
	case len(br.Results) != n:
		return nil, fmt.Errorf("gateway: replica %s answered %d results for %d sentences", rep.url, len(br.Results), n)
	}
	rep.forwarded.Add(1)
	out := make([]core.Result, n)
	for i, r := range br.Results {
		out[i] = core.Result{Label: r.Label, Score: r.Score}
	}
	return out, nil
}

// exposition is the pool's half of GET /metrics. The forward latency is the
// front engine's compute stage: for a remote model, the replica round trip.
func (p *pool) exposition(models []core.ModelInfo) []byte {
	var w metrics.PromWriter
	const latency = "forward latency percentiles since the last stats reset (the front engine's compute stage)"
	for _, m := range models {
		w.Gauge("repro_gateway_forward_latency_ms", latency, m.Stats.ComputeP50Ms, "model", m.Name, "quantile", "0.5")
		w.Gauge("repro_gateway_forward_latency_ms", latency, m.Stats.ComputeP99Ms, "model", m.Name, "quantile", "0.99")
	}
	w.Counter("repro_gateway_retries_total", "forward attempts beyond each batch's first", float64(p.retries.Load()))
	w.Counter("repro_gateway_hedges_total", "hedge attempts launched", float64(p.hedges.Load()))
	w.Counter("repro_gateway_hedge_wins_total", "batches answered by the hedge, not the primary", float64(p.hedgeWins.Load()))
	w.Counter("repro_gateway_shed_total", "batches every replica tried refused (429 or a degraded answer)", float64(p.shed.Load()))
	w.Counter("repro_gateway_breaker_open_total", "attempts refused by an open replica breaker", float64(p.breakerOpen.Load()))
	for _, rep := range p.replicas {
		w.Counter("repro_gateway_forwarded_total", "batches the replica answered", float64(rep.forwarded.Load()), "replica", rep.url)
		w.Counter("repro_gateway_ejections_total", "times the replica's breaker opened", float64(rep.ejections.Load()), "replica", rep.url)
	}
	return w.Bytes()
}

// remote is one front model computed by the fleet: the front's engine calls
// its Detect for every batch, and it ignores the worker's arena.
type remote struct {
	pool      *pool
	reg       *core.Registry // the front's: its compute p99 is the hedge delay
	model     string
	uri       string
	approach  core.Approach
	precision core.Precision
}

func (d *remote) Detect(sentences []string, _ *tensor.Workspace) ([]core.Result, error) {
	return d.pool.detect(d.uri, sentences, d.hedgeDelay())
}

// hedgeDelay is when a slow forward grows its hedge: the front engine's
// compute p99 for the model — for a remote model, the forward latency —
// clamped to [hedgeMin, hedgeMax], and hedgeMax before any batch has run.
// The p99 is a walk over the engine's histogram buckets, so every batch
// reads it afresh.
func (d *remote) hedgeDelay() time.Duration {
	st, _ := d.reg.Stats(d.model) // only a closing front fails, and reads as no samples
	if st.ComputeP99Ms == 0 {
		return hedgeMax
	}
	return min(max(time.Duration(st.ComputeP99Ms*float64(time.Millisecond)), hedgeMin), hedgeMax)
}

func (d *remote) Approach() core.Approach   { return d.approach }
func (d *remote) Precision() core.Precision { return d.precision }
