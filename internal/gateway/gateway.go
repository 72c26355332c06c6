// Package gateway is the replicated-serving tier over N anomalyd replicas
// (ROADMAP item 1): one HTTP front that makes a fleet look like a single
// overload-safe node. It converts PR 7's single-replica resilience contract
// into a fleet-level one:
//
//   - Routing. Monitor traffic is consistent-hash routed on trace ID
//     (internal/gateway/ring), so each trace's TraceTracker window
//     accumulates on exactly one replica; stateless detect traffic
//     load-balances to the least-outstanding routable replica. Detect
//     requests may opt into affinity with ?trace= or X-Trace-Key.
//   - Health. An active checker probes every replica's /readyz; consecutive
//     failures eject it from rotation, consecutive successes re-admit it
//     (hysteresis in both directions, so a flapping replica doesn't thrash
//     the ring).
//   - Tail latency. Forwards hedge through resilience.Hedged after a
//     p99-derived delay: the straggler is raced by a copy on the next
//     replica in preference order and the loser is cancelled. Hedges and
//     retries share one retry Budget, and each replica sits behind its own
//     circuit Breaker, so neither can amplify an outage.
//   - Backpressure. A replica's 429 Retry-After is honored as a per-replica
//     cooldown (the gateway reroutes instead of hammering it), and when no
//     replica is routable at all the gateway sheds with its own 429 before
//     forwarding — admission control at the fleet boundary.
//
// Everything rides the caller's request context; the package is declared a
// request path for reprolint's ctxflow analyzer.
//
//repro:requestpath
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway/ring"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// maxBody caps request and relayed response bodies the gateway must
// materialize (hedging needs a replayable request body and a fully-consumed
// response). Matches internal/core's JSON body cap.
const maxBody = 32 << 20

// Config tunes the gateway. Replicas is required; every other zero value
// gets a serving-grade default from fill.
type Config struct {
	// Replicas are the anomalyd base URLs ("http://host:port"). The
	// consistent-hash layout is a pure function of this set.
	Replicas []string
	// VirtualNodes per replica on the hash ring (default
	// ring.DefaultVirtualNodes).
	VirtualNodes int
	// Client is the forwarding HTTP client (default http.DefaultClient).
	Client *http.Client

	// HealthInterval is the /readyz probe period (default 1s);
	// HealthTimeout bounds one probe (default min(HealthInterval, 500ms)).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// EjectAfter consecutive probe failures take a replica out of rotation;
	// ReadmitAfter consecutive successes bring it back (defaults 2 and 2 —
	// hysteresis both ways).
	EjectAfter   int
	ReadmitAfter int

	// MaxAttempts is the number of distinct replicas one request may be
	// forwarded to before the gateway gives up (default 3, clamped to the
	// replica count).
	MaxAttempts int
	// HedgeDelay fixes the hedge trigger. Zero derives it per request from
	// the gateway's recent forward-latency p99, clamped to
	// [HedgeMin, HedgeMax] (defaults 5ms and 250ms) — so roughly the
	// slowest 1% of forwards grow a hedge and the rest never pay for one.
	HedgeDelay time.Duration
	HedgeMin   time.Duration
	HedgeMax   time.Duration

	// BudgetCapacity/BudgetRatio shape the shared retry+hedge token bucket
	// (resilience.NewBudget; defaults 32 tokens, ratio 0.1).
	BudgetCapacity float64
	BudgetRatio    float64
	// BreakerThreshold consecutive forward failures open a replica's
	// circuit; BreakerCooldown later one probe is let through (defaults
	// 5 and 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// CooldownDefault is the 429 cooldown applied when a shedding replica
	// sent no Retry-After hint (default 500ms).
	CooldownDefault time.Duration
}

func (c *Config) fill() {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 500 * time.Millisecond
		if c.HealthTimeout > c.HealthInterval {
			c.HealthTimeout = c.HealthInterval
		}
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 5 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 250 * time.Millisecond
	}
	if c.BudgetCapacity <= 0 {
		c.BudgetCapacity = 32
	}
	if c.BudgetRatio <= 0 {
		c.BudgetRatio = 0.1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.CooldownDefault <= 0 {
		c.CooldownDefault = 500 * time.Millisecond
	}
}

// replica is one anomalyd behind the gateway: its routing state (health,
// cooldown, breaker, outstanding count) and telemetry counters.
type replica struct {
	url     string
	breaker *resilience.Breaker

	healthy     atomic.Bool
	coolUntil   atomic.Int64 // unixnano; 429 Retry-After honored until then
	outstanding atomic.Int64

	forwarded    atomic.Int64
	failures     atomic.Int64
	ejections    atomic.Int64
	monitorLines atomic.Int64

	// probe counters, touched only by this replica's health loop
	probeFails int
	probeOKs   int
}

// routable reports whether the gateway may send this replica new work:
// admitted by the health checker and not inside a 429 cooldown. The circuit
// breaker is consulted at attempt time (Allow mutates half-open state), not
// here.
func (r *replica) routable(now time.Time) bool {
	return r.healthy.Load() && now.UnixNano() >= r.coolUntil.Load()
}

// cool starts (or extends) the replica's 429 cooldown.
func (r *replica) cool(until time.Time) {
	n := until.UnixNano()
	for {
		cur := r.coolUntil.Load()
		if cur >= n || r.coolUntil.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Gateway is the reverse-routing tier. Create with New, serve it like any
// http.Handler, Close it to stop the health checker.
type Gateway struct {
	cfg      Config
	ctx      context.Context // root for health probes; from New's caller
	cancel   context.CancelFunc
	ring     *ring.Ring
	replicas map[string]*replica
	names    []string // sorted
	budget   *resilience.Budget
	mux      *http.ServeMux

	lat latencyRing // forward latency samples, feeds the hedge delay

	requests     atomic.Int64
	shed         atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	hedgeDenied  atomic.Int64
	budgetDenied atomic.Int64
	breakerOpen  atomic.Int64
	rerouted     atomic.Int64 // monitor lines moved to a successor mid-stream
	lost         atomic.Int64 // monitor lines no surviving replica accepted

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a gateway over cfg.Replicas and starts its health checker. ctx
// is the root the checker's probe contexts derive from — pass the process
// context; cancelling it (or calling Close) stops the probes.
func New(ctx context.Context, cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: no replicas configured")
	}
	cfg.fill()
	g := &Gateway{
		cfg:      cfg,
		ring:     ring.New(cfg.Replicas, cfg.VirtualNodes),
		replicas: make(map[string]*replica),
		budget:   resilience.NewBudget(cfg.BudgetCapacity, cfg.BudgetRatio),
		mux:      http.NewServeMux(),
		closed:   make(chan struct{}),
	}
	g.ctx, g.cancel = context.WithCancel(ctx)
	g.names = g.ring.Members()
	for _, u := range g.names {
		rep := &replica{url: u, breaker: resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		rep.healthy.Store(true) // optimistic: serve before the first probe lands
		g.replicas[u] = rep
	}
	g.mux.HandleFunc("/v1/detect", g.handleForward)
	g.mux.HandleFunc("/v1/detect/batch", g.handleForward)
	g.mux.HandleFunc("/v1/monitor", g.handleMonitor)
	g.mux.HandleFunc("/v1/models", g.handleModels)
	g.mux.HandleFunc("/v1/stats/reset", g.handleStatsReset)
	g.mux.HandleFunc("/v1/alerts", g.handleAlerts)
	g.mux.HandleFunc("/healthz", g.handleHealth)
	g.mux.HandleFunc("/readyz", g.handleReady)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	for _, rep := range g.replicas {
		g.wg.Add(1)
		go g.healthLoop(rep)
	}
	return g, nil
}

// Close stops the health checker. In-flight proxied requests are owned by
// their own request contexts and finish (or cancel) on their own.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.closed)
		g.cancel()
	})
	g.wg.Wait()
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// candidates returns the replicas a request may be forwarded to, in
// preference order. A trace key pins the order to the ring (affinity +
// deterministic failover); without one, routable replicas sort by
// outstanding work (ties by name, for determinism). Either way, replicas
// whose circuit is open sink to the back of the list: a just-crashed replica
// has zero outstanding work and would otherwise look like the *best* target
// until the health checker ejects it. They stay in the list — retry and
// hedge attempts reaching them drive the breaker's half-open probing — but
// nobody's first choice.
func (g *Gateway) candidates(key string) []*replica {
	now := time.Now()
	out := make([]*replica, 0, len(g.names))
	if key != "" {
		for _, name := range g.ring.Lookup(key) {
			if rep := g.replicas[name]; rep.routable(now) {
				out = append(out, rep)
			}
		}
		return partitionOpen(out)
	}
	for _, name := range g.names {
		if rep := g.replicas[name]; rep.routable(now) {
			out = append(out, rep)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		oi, ok := out[i].outstanding.Load(), out[k].outstanding.Load()
		if oi != ok {
			return oi < ok
		}
		return out[i].url < out[k].url
	})
	return partitionOpen(out)
}

// partitionOpen stably moves replicas with an open circuit to the back.
func partitionOpen(reps []*replica) []*replica {
	open := 0
	for _, rep := range reps {
		if rep.breaker.State() == resilience.Open {
			open++
		}
	}
	if open == 0 || open == len(reps) {
		return reps
	}
	out := make([]*replica, 0, len(reps))
	for _, rep := range reps {
		if rep.breaker.State() != resilience.Open {
			out = append(out, rep)
		}
	}
	for _, rep := range reps {
		if rep.breaker.State() == resilience.Open {
			out = append(out, rep)
		}
	}
	return out
}

// traceKey extracts a detect request's explicit affinity key: ?trace= or the
// X-Trace-Key header. Stateless requests return "" and load-balance.
func traceKey(r *http.Request) string {
	if v := r.URL.Query().Get("trace"); v != "" {
		if id, err := strconv.Atoi(v); err == nil {
			return ring.TraceKey(id)
		}
		return "trace:" + v
	}
	if v := r.Header.Get("X-Trace-Key"); v != "" {
		return "trace:" + v
	}
	return ""
}

// proxyResponse is one fully-materialized replica answer — materialized so a
// hedged loser can be cancelled without tearing a body out from under the
// relay (see resilience.Hedged's contract).
type proxyResponse struct {
	status  int
	header  http.Header
	body    []byte
	replica string
}

// handleForward proxies /v1/detect and /v1/detect/batch: pick candidates,
// forward with hedging, rotate to the next preference on retryable failure,
// shed at the boundary when nothing is routable.
func (g *Gateway) handleForward(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, "gateway: reading request body: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	cands := g.candidates(traceKey(r))
	if len(cands) == 0 {
		g.shedNow(w)
		return
	}
	out, err := g.forward(r.Context(), cands, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, resilience.ErrCircuitOpen) {
			status = http.StatusServiceUnavailable
		}
		if r.Context().Err() != nil {
			// The client went away; the status is a formality.
			status = http.StatusServiceUnavailable
		}
		http.Error(w, "gateway: forward failed: "+err.Error(), status)
		return
	}
	relay(w, out)
}

// forward tries candidates in order: the first attempt is hedged against the
// next preference, later attempts (budget-gated) rotate onward. It returns
// the first non-retryable response, or the last outcome when everything
// failed.
func (g *Gateway) forward(ctx context.Context, cands []*replica, method, uri, contentType string, body []byte) (*proxyResponse, error) {
	attempts := g.cfg.MaxAttempts
	if attempts > len(cands) {
		attempts = len(cands)
	}
	// Every forwarded request deposits into the shared retry+hedge budget
	// (resilience.Client.Do does the same per request): healthy traffic keeps
	// the bucket full, an outage dries deposits up and self-limits the
	// retry+hedge rate to BudgetRatio× the request rate.
	g.budget.Attempt()
	var lastResp *proxyResponse
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if ctx.Err() != nil {
				break
			}
			if !g.budget.Withdraw() {
				g.budgetDenied.Add(1)
				break
			}
			g.retries.Add(1)
		}
		rep := cands[i]
		var out *proxyResponse
		var err error
		if i+1 < len(cands) {
			next := cands[i+1]
			var hr resilience.HedgeResult
			out, hr, err = resilience.Hedged(ctx, g.hedgeDelay(), g.budget,
				func(ctx context.Context) (*proxyResponse, error) {
					return g.forwardOnce(ctx, rep, method, uri, contentType, body)
				},
				func(ctx context.Context) (*proxyResponse, error) {
					return g.forwardOnce(ctx, next, method, uri, contentType, body)
				})
			if hr.Launched {
				g.hedges.Add(1)
			}
			if hr.WonByHedge {
				g.hedgeWins.Add(1)
			}
			if hr.Denied {
				g.hedgeDenied.Add(1)
			}
		} else {
			out, err = g.forwardOnce(ctx, rep, method, uri, contentType, body)
		}
		if err == nil && !resilience.RetryableStatus(out.status) {
			return out, nil
		}
		lastResp, lastErr = out, err
	}
	if lastResp != nil {
		// A retryable status from the last replica tried (e.g. every
		// candidate shed with 429) relays as-is: its Retry-After is the
		// fleet's honest drain estimate.
		return lastResp, nil
	}
	return nil, lastErr
}

// forwardOnce sends one attempt to one replica: breaker-gated, outstanding-
// counted, response fully materialized, 429 hints turned into cooldowns, and
// the forward latency sampled into the hedge-delay window.
func (g *Gateway) forwardOnce(ctx context.Context, rep *replica, method, uri, contentType string, body []byte) (*proxyResponse, error) {
	if !rep.breaker.Allow() {
		g.breakerOpen.Add(1)
		return nil, resilience.ErrCircuitOpen
	}
	rep.outstanding.Add(1)
	defer rep.outstanding.Add(-1)
	req, err := http.NewRequestWithContext(ctx, method, rep.url+uri, bytes.NewReader(body))
	if err != nil {
		rep.breaker.Record(false)
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := g.cfg.Client.Do(req)
	var respBody []byte
	if err == nil {
		respBody, err = io.ReadAll(io.LimitReader(resp.Body, maxBody))
		resp.Body.Close()
	}
	if err != nil {
		if ctx.Err() != nil {
			// The caller gave up — a hedge race's winner cancels the loser —
			// which says nothing about the replica: neither success nor failure.
			rep.breaker.Abandon()
			return nil, err
		}
		rep.breaker.Record(false)
		rep.failures.Add(1)
		return nil, err
	}
	ok := resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests
	rep.breaker.Record(ok)
	if resp.StatusCode == http.StatusTooManyRequests {
		hint := resilience.RetryAfterHint(resp)
		if hint <= 0 {
			hint = g.cfg.CooldownDefault
		}
		rep.cool(time.Now().Add(hint))
	}
	if ok {
		rep.forwarded.Add(1)
		g.lat.add(float64(time.Since(start)) / float64(time.Millisecond))
	} else {
		rep.failures.Add(1)
	}
	return &proxyResponse{status: resp.StatusCode, header: resp.Header, body: respBody, replica: rep.url}, nil
}

// hedgeDelay resolves when a slow forward grows its hedge: the configured
// fixed delay, or the recent forward p99 clamped to [HedgeMin, HedgeMax].
// Before any samples exist it sits at HedgeMax — hedge conservatively until
// the gateway knows what "slow" means here.
func (g *Gateway) hedgeDelay() time.Duration {
	if g.cfg.HedgeDelay > 0 {
		return g.cfg.HedgeDelay
	}
	p99 := g.lat.p99()
	d := time.Duration(p99 * float64(time.Millisecond))
	if d < g.cfg.HedgeMin {
		d = g.cfg.HedgeMin
	}
	if p99 <= 0 || d > g.cfg.HedgeMax {
		d = g.cfg.HedgeMax
	}
	return d
}

// shedNow is gateway-level admission control: nothing is routable, so refuse
// at the boundary with the fleet's soonest-recovery estimate rather than
// queueing on a replica that already said no.
func (g *Gateway) shedNow(w http.ResponseWriter) {
	g.shed.Add(1)
	retry := g.cfg.HealthInterval
	now := time.Now().UnixNano()
	for _, rep := range g.replicas {
		if until := rep.coolUntil.Load(); until > now {
			if d := time.Duration(until - now); d < retry {
				retry = d
			}
		}
	}
	resilience.SetRetryAfter(w.Header(), retry)
	http.Error(w, "gateway: no routable replica (all ejected, cooling, or saturated)", http.StatusTooManyRequests)
}

// relay writes a replica's materialized response through, preserving the
// overload-contract headers and stamping which replica answered.
func relay(w http.ResponseWriter, out *proxyResponse) {
	for _, h := range []string{"Content-Type", "Retry-After", "Retry-After-Ms", "X-Replica"} {
		if v := out.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Gateway-Replica", out.replica)
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// ModelsAggregate is the gateway's GET /v1/models body: the fleet view
// merged into the single-node shape (so existing clients and the load lab
// decode it unchanged) plus the per-replica breakdown.
type ModelsAggregate struct {
	core.ModelsResponse
	// Replicas maps replica URL to its own /v1/models answer; ejected or
	// unreachable replicas appear in Errors instead.
	Replicas map[string]core.ModelsResponse `json:"replicas,omitempty"`
	Errors   map[string]string              `json:"replica_errors,omitempty"`
}

// handleModels is GET /v1/models: fan out to every replica and merge.
// Counters sum; queue gauges sum (the fleet's total backlog) except
// MaxQueueLen and the latency percentiles, which take the per-replica max —
// a conservative fleet tail. Zero reachable replicas is a 502.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	agg := ModelsAggregate{Replicas: make(map[string]core.ModelsResponse), Errors: make(map[string]string)}
	byName := map[string]*core.ModelInfo{}
	var order []string
	for _, name := range g.names {
		rep := g.replicas[name]
		var mr core.ModelsResponse
		if err := g.getJSON(r.Context(), rep.url+"/v1/models", &mr); err != nil {
			agg.Errors[name] = err.Error()
			continue
		}
		agg.Replicas[name] = mr
		agg.SSE.Subscribers += mr.SSE.Subscribers
		agg.SSE.Dropped += mr.SSE.Dropped
		for _, mi := range mr.Models {
			tgt, seen := byName[mi.Name]
			if !seen {
				cp := mi
				byName[mi.Name] = &cp
				order = append(order, mi.Name)
				continue
			}
			mergeModelInfo(tgt, mi)
		}
	}
	if len(agg.Replicas) == 0 {
		http.Error(w, "gateway: no replica answered /v1/models", http.StatusBadGateway)
		return
	}
	sort.Strings(order)
	for _, name := range order {
		agg.Models = append(agg.Models, *byName[name])
	}
	writeJSON(w, agg)
}

// mergeModelInfo folds one replica's view of a model into the aggregate row.
func mergeModelInfo(tgt *core.ModelInfo, mi core.ModelInfo) {
	tgt.ActiveTraces += mi.ActiveTraces
	tgt.QueueDepth += mi.QueueDepth
	tgt.ShedQueueDepth += mi.ShedQueueDepth
	a, b := &tgt.Stats, mi.Stats
	a.QueueLen += b.QueueLen
	if b.MaxQueueLen > a.MaxQueueLen {
		a.MaxQueueLen = b.MaxQueueLen
	}
	a.Requests += b.Requests
	a.Sentences += b.Sentences
	a.Batches += b.Batches
	a.DedupSaved += b.DedupSaved
	a.Shed += b.Shed
	a.Expired += b.Expired
	a.Degraded += b.Degraded
	a.BrownoutActive = a.BrownoutActive || b.BrownoutActive
	a.CascadeEvaluated += b.CascadeEvaluated
	a.CascadeShort += b.CascadeShort
	a.CascadePassed += b.CascadePassed
	if a.CascadeEvaluated > 0 {
		a.CascadePassFraction = float64(a.CascadePassed) / float64(a.CascadeEvaluated)
	}
	if a.Batches > 0 {
		a.BatchOccupancy = float64(a.Sentences) / float64(a.Batches)
	}
	a.QueueWaitP50Ms = maxf(a.QueueWaitP50Ms, b.QueueWaitP50Ms)
	a.QueueWaitP99Ms = maxf(a.QueueWaitP99Ms, b.QueueWaitP99Ms)
	a.ComputeP50Ms = maxf(a.ComputeP50Ms, b.ComputeP50Ms)
	a.ComputeP99Ms = maxf(a.ComputeP99Ms, b.ComputeP99Ms)
}

func maxf(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// handleStatsReset is POST /v1/stats/reset: fan out to every replica. The
// load lab resets between scenarios; a fleet replay must reset the whole
// fleet. Succeeds (204) when at least one replica reset — a killed replica
// mid-drill must not fail the survivors' replay.
func (g *Gateway) handleStatsReset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	okCount := 0
	var lastErr string
	for _, name := range g.names {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			g.replicas[name].url+"/v1/stats/reset"+queryString(r), nil)
		if err != nil {
			lastErr = err.Error()
			continue
		}
		resp, err := g.cfg.Client.Do(req)
		if err != nil {
			lastErr = err.Error()
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			lastErr = fmt.Sprintf("%s: status %d", name, resp.StatusCode)
			continue
		}
		okCount++
	}
	if okCount == 0 {
		http.Error(w, "gateway: stats reset reached no replica: "+lastErr, http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func queryString(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return "?" + r.URL.RawQuery
}

// getJSON fetches url into v under the request's context.
func (g *Gateway) getJSON(ctx context.Context, url string, v interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(v)
}

// HealthResponse is the gateway's /healthz body (liveness: the gateway
// itself is up; replica state is /readyz's concern).
type HealthResponse struct {
	Status   string `json:"status"`
	Replicas int    `json:"replicas"`
	Healthy  int    `json:"healthy"`
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Replicas: len(g.names)}
	for _, rep := range g.replicas {
		if rep.healthy.Load() {
			resp.Healthy++
		}
	}
	writeJSON(w, resp)
}

// ReplicaStatus is one replica's routing state in the gateway's /readyz.
type ReplicaStatus struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	Cooling     bool   `json:"cooling"`
	Breaker     string `json:"breaker"`
	Outstanding int64  `json:"outstanding"`
	Forwarded   int64  `json:"forwarded"`
	Failures    int64  `json:"failures"`
	Ejections   int64  `json:"ejections"`
}

// ReadyResponse is the gateway's /readyz body: ready while at least one
// replica is routable.
type ReadyResponse struct {
	Ready    bool            `json:"ready"`
	Replicas []ReplicaStatus `json:"replicas"`
}

func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	now := time.Now()
	resp := ReadyResponse{}
	for _, name := range g.names {
		rep := g.replicas[name]
		st := ReplicaStatus{
			URL:         name,
			Healthy:     rep.healthy.Load(),
			Cooling:     now.UnixNano() < rep.coolUntil.Load(),
			Breaker:     rep.breaker.State().String(),
			Outstanding: rep.outstanding.Load(),
			Forwarded:   rep.forwarded.Load(),
			Failures:    rep.failures.Load(),
			Ejections:   rep.ejections.Load(),
		}
		if rep.routable(now) {
			resp.Ready = true
		}
		resp.Replicas = append(resp.Replicas, st)
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// handleMetrics is GET /metrics: the gateway's own Prometheus exposition —
// routing, hedging, shedding, and per-replica health/traffic.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var p metrics.PromWriter
	p.Gauge("repro_gateway_replicas", "configured replicas", float64(len(g.names)))
	p.Counter("repro_gateway_requests_total", "requests accepted for forwarding", float64(g.requests.Load()))
	p.Counter("repro_gateway_shed_total", "requests shed at the gateway boundary (no routable replica)", float64(g.shed.Load()))
	p.Counter("repro_gateway_retries_total", "forward attempts beyond each request's first", float64(g.retries.Load()))
	p.Counter("repro_gateway_hedges_total", "hedge attempts launched", float64(g.hedges.Load()))
	p.Counter("repro_gateway_hedge_wins_total", "requests answered by the hedge, not the primary", float64(g.hedgeWins.Load()))
	p.Counter("repro_gateway_hedge_denied_total", "hedges refused by the retry budget", float64(g.hedgeDenied.Load()))
	p.Counter("repro_gateway_budget_denied_total", "retries refused by the retry budget", float64(g.budgetDenied.Load()))
	p.Counter("repro_gateway_breaker_open_total", "attempts refused by an open replica breaker", float64(g.breakerOpen.Load()))
	p.Counter("repro_gateway_monitor_rerouted_total", "monitor lines re-routed to a successor after their replica failed mid-stream", float64(g.rerouted.Load()))
	p.Counter("repro_gateway_monitor_lost_total", "monitor lines no surviving replica accepted", float64(g.lost.Load()))
	p.Gauge("repro_gateway_retry_budget_tokens", "retry budget balance", g.budget.Tokens())
	p.Gauge("repro_gateway_forward_latency_ms", "successful forward latency percentiles over the recent window",
		g.lat.quantile(0.50), "quantile", "0.5")
	p.Gauge("repro_gateway_forward_latency_ms", "successful forward latency percentiles over the recent window",
		g.lat.quantile(0.99), "quantile", "0.99")
	p.Gauge("repro_gateway_hedge_delay_ms", "current hedge trigger delay", float64(g.hedgeDelay())/float64(time.Millisecond))
	now := time.Now()
	for _, name := range g.names {
		rep := g.replicas[name]
		p.Gauge("repro_gateway_replica_healthy", "1 while the health checker admits the replica", boolGauge(rep.healthy.Load()), "replica", name)
		p.Gauge("repro_gateway_replica_cooling", "1 while a 429 Retry-After cooldown holds", boolGauge(now.UnixNano() < rep.coolUntil.Load()), "replica", name)
		p.Gauge("repro_gateway_replica_outstanding", "in-flight forwards", float64(rep.outstanding.Load()), "replica", name)
		p.Counter("repro_gateway_forwarded_total", "successful forwards", float64(rep.forwarded.Load()), "replica", name)
		p.Counter("repro_gateway_replica_failures_total", "failed forwards (transport, 5xx, or 429)", float64(rep.failures.Load()), "replica", name)
		p.Counter("repro_gateway_ejections_total", "health-check ejections", float64(rep.ejections.Load()), "replica", name)
		p.Counter("repro_gateway_monitor_lines_total", "monitor lines routed to the replica", float64(rep.monitorLines.Load()), "replica", name)
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	w.Write(p.Bytes())
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// latencyRing is a bounded mutex-guarded sample window feeding the
// p99-derived hedge delay and the /metrics latency gauges.
type latencyRing struct {
	mu  sync.Mutex
	buf []float64
	n   int
}

const latencyWindow = 1024

func (l *latencyRing) add(ms float64) {
	l.mu.Lock()
	if l.buf == nil {
		l.buf = make([]float64, 0, latencyWindow)
	}
	if len(l.buf) < latencyWindow {
		l.buf = append(l.buf, ms)
	} else {
		l.buf[l.n%latencyWindow] = ms
	}
	l.n++
	l.mu.Unlock()
}

func (l *latencyRing) quantile(q float64) float64 {
	l.mu.Lock()
	snap := make([]float64, len(l.buf))
	copy(snap, l.buf)
	l.mu.Unlock()
	return metrics.Percentile(snap, q)
}

func (l *latencyRing) p99() float64 { return l.quantile(0.99) }

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
