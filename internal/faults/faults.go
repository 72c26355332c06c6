// Package faults is a deterministic fault-injection middleware for the
// serving tier: it wraps an http.Handler and perturbs a seeded, counted
// subset of requests with the failure modes a replica actually exhibits
// under stress — latency spikes, error bursts, connection resets, and
// stalls. The load lab's chaos scenarios wrap the in-process server with it;
// `anomalyd -faults` wraps a live daemon for end-to-end drills.
//
// Determinism is the point: fault assignment is counter-based (every Nth
// matching request inside the armed window), and the kind of the k-th fault
// comes from a sequence precomputed from the seed — so a chaos replay
// perturbs the same requests with the same faults every run, and a recorded
// chaos baseline is diffable in CI.
package faults

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tensor"
)

// Kind is one failure mode.
type Kind string

const (
	// Latency delays the request by Config.Latency, then serves it
	// normally — the slow-replica case retries and hedging must survive.
	Latency Kind = "latency"
	// Error answers Config.ErrorStatus (default 503) without invoking the
	// wrapped handler — the crashed-worker / failing-dependency case.
	Error Kind = "error"
	// Reset aborts the connection mid-request (http.ErrAbortHandler), so
	// the client sees a transport error, not an HTTP status.
	Reset Kind = "reset"
	// Stall holds the request for Config.Stall before answering — long
	// enough to trip client deadlines, unlike a Latency blip.
	Stall Kind = "stall"
)

// kinds lists every failure mode, in the order specs accept them.
var kinds = []Kind{Latency, Error, Reset, Stall}

// Window bounds when the injector is active, relative to Arm(). The zero
// value means always armed.
type Window struct {
	Start time.Duration // faults begin this long after Arm
	End   time.Duration // and stop after this (0 = never stop)
}

// Config describes a fault campaign.
type Config struct {
	// Seed drives the kind sequence; same seed, same faults.
	Seed uint64
	// Every injects a fault into every Nth matching request (default 5;
	// 1 = every request).
	Every int
	// Kinds is the fault palette drawn from (default: every kind).
	Kinds []Kind
	// Latency is the added delay for Latency faults (default 150ms).
	Latency time.Duration
	// Stall is the hold time for Stall faults (default 2s).
	Stall time.Duration
	// ErrorStatus is the status Error faults answer (default 503).
	ErrorStatus int
	// Window bounds the campaign relative to Arm (zero = always on).
	Window Window
	// Path restricts injection to request paths with this prefix
	// ("" = all paths). Health and stats probes typically stay clean so the
	// lab can observe the wreckage.
	Path string
}

func (c *Config) fill() {
	if c.Every <= 0 {
		c.Every = 5
	}
	if len(c.Kinds) == 0 {
		c.Kinds = append([]Kind(nil), kinds...)
	}
	if c.Latency <= 0 {
		c.Latency = 150 * time.Millisecond
	}
	if c.Stall <= 0 {
		c.Stall = 2 * time.Second
	}
	if c.ErrorStatus == 0 {
		c.ErrorStatus = http.StatusServiceUnavailable
	}
}

// Injector wraps handlers with the configured fault campaign. Safe for
// concurrent use.
type Injector struct {
	cfg Config

	// now is the injector's clock, injectable so tests can drive the
	// campaign window deterministically. Production uses the wall clock:
	// `anomalyd -faults` windows are real-time by definition, while the
	// request-count schedule (Every, kinds) stays purely seed-driven.
	now func() time.Time

	mu      sync.Mutex
	rng     *tensor.RNG
	armedAt time.Time
	armed   bool
	seen    int64 // matching requests observed
	counts  map[Kind]int64
}

// New builds an injector; call Arm to start its window, Wrap to install it.
func New(cfg Config) *Injector {
	cfg.fill()
	return &Injector{
		cfg: cfg,
		//lint:ignore determinism injectable clock's production default; the fault window is real-time, tests inject a fake
		now:    time.Now,
		rng:    tensor.NewRNG(cfg.Seed ^ 0xfa017),
		counts: make(map[Kind]int64),
	}
}

// Arm starts (or restarts) the injection window and zeroes the request
// counter and per-kind counts, so repeated replays against one process see
// identical fault schedules.
func (i *Injector) Arm() {
	i.mu.Lock()
	i.armed = true
	i.armedAt = i.now()
	i.seen = 0
	i.counts = make(map[Kind]int64)
	i.rng = tensor.NewRNG(i.cfg.Seed ^ 0xfa017)
	i.mu.Unlock()
}

// Disarm stops injection without touching the counters.
func (i *Injector) Disarm() {
	i.mu.Lock()
	i.armed = false
	i.mu.Unlock()
}

// Counts returns how many faults of each kind have fired since Arm.
func (i *Injector) Counts() map[Kind]int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[Kind]int64, len(i.counts))
	for k, v := range i.counts {
		out[k] = v
	}
	return out
}

// Total returns the total faults fired since Arm.
func (i *Injector) Total() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	var n int64
	for _, v := range i.counts {
		n += v
	}
	return n
}

// decide classifies one request: which fault to apply, if any. The counter
// and kind draw advance only for matching, in-window requests, keeping the
// schedule independent of unrelated traffic.
func (i *Injector) decide(path string) (Kind, bool) {
	if i.cfg.Path != "" && !strings.HasPrefix(path, i.cfg.Path) {
		return "", false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.armed {
		return "", false
	}
	since := i.now().Sub(i.armedAt)
	if since < i.cfg.Window.Start {
		return "", false
	}
	if end := i.cfg.Window.End; end > 0 && since >= end {
		return "", false
	}
	i.seen++
	if i.seen%int64(i.cfg.Every) != 0 {
		return "", false
	}
	k := i.cfg.Kinds[i.rng.Intn(len(i.cfg.Kinds))]
	i.counts[k]++
	return k, true
}

// Wrap installs the campaign around next.
func (i *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, fire := i.decide(r.URL.Path)
		if !fire {
			next.ServeHTTP(w, r)
			return
		}
		switch kind {
		case Latency:
			select {
			case <-time.After(i.cfg.Latency):
			case <-r.Context().Done():
			}
			next.ServeHTTP(w, r)
		case Error:
			http.Error(w, "faults: injected error", i.cfg.ErrorStatus)
		case Reset:
			// The canonical way to kill the connection from inside a
			// handler: the server recovers this sentinel panic and aborts
			// without logging a stack.
			panic(http.ErrAbortHandler)
		case Stall:
			select {
			case <-time.After(i.cfg.Stall):
			case <-r.Context().Done():
			}
			http.Error(w, "faults: stalled", http.StatusServiceUnavailable)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// Parse builds a Config from a comma-separated spec, the `anomalyd -faults`
// flag grammar:
//
//	seed=7,every=5,kinds=latency+error,latency=200ms,stall=1s,status=503,window=5s:20s,path=/v1/
//
// Every key is optional; an empty spec is an error (pass nothing to disable
// injection instead).
func Parse(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, fmt.Errorf("faults: empty spec")
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("faults: malformed field %q", part)
		}
		key, val := kv[0], kv[1]
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("faults: bad seed %q", val)
			}
			cfg.Seed = n
		case "every":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("faults: bad every %q", val)
			}
			cfg.Every = n
		case "kinds":
			for _, name := range strings.Split(val, "+") {
				k := Kind(name)
				valid := false
				for _, known := range kinds {
					if k == known {
						valid = true
						break
					}
				}
				if !valid {
					return cfg, fmt.Errorf("faults: unknown kind %q (have %s)", name, kindNames())
				}
				cfg.Kinds = append(cfg.Kinds, k)
			}
		case "latency":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("faults: bad latency %q", val)
			}
			cfg.Latency = d
		case "stall":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("faults: bad stall %q", val)
			}
			cfg.Stall = d
		case "status":
			n, err := strconv.Atoi(val)
			if err != nil || n < 400 || n > 599 {
				return cfg, fmt.Errorf("faults: bad status %q", val)
			}
			cfg.ErrorStatus = n
		case "window":
			se := strings.SplitN(val, ":", 2)
			if len(se) != 2 {
				return cfg, fmt.Errorf("faults: bad window %q, want start:end", val)
			}
			start, err := time.ParseDuration(se[0])
			if err != nil || start < 0 {
				return cfg, fmt.Errorf("faults: bad window start %q", se[0])
			}
			end, err := time.ParseDuration(se[1])
			if err != nil || (end != 0 && end <= start) {
				return cfg, fmt.Errorf("faults: bad window end %q", se[1])
			}
			cfg.Window = Window{Start: start, End: end}
		case "path":
			cfg.Path = val
		default:
			return cfg, fmt.Errorf("faults: unknown key %q", key)
		}
	}
	return cfg, nil
}

func kindNames() string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
