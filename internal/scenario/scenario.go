// Package scenario defines named, seeded, fully deterministic generators of
// labeled log traffic with arrival-time schedules — the workloads the load
// lab (cmd/loadlab) replays against a serving anomalyd. A scenario turns
// Flow-Bench's DAG/anomaly machinery into a *stream*: each event is one log
// line in the wire format the server ingests, carrying its ground-truth job
// (label, anomaly class, trace identity) and the instant it should arrive.
// Replay is open-loop — events are sent on schedule regardless of how the
// server is keeping up — so queueing behaviour is visible instead of being
// absorbed by client backpressure.
//
// Determinism is a hard contract: the same scenario name, seed, and config
// produce byte-identical events (pinned by golden-file tests), so loadlab
// reports are comparable across commits and a replay is exactly
// repeatable. Everything stochastic draws from tensor.RNG, schedules use
// integer arithmetic on durations, and no wall clock or map iteration leaks
// into generation.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/tensor"
)

// Event is one scheduled log line with its ground truth.
type Event struct {
	// At is the scheduled arrival offset from stream start. Events sharing
	// an At form a burst and are sent in one request.
	At time.Duration
	// Line is the raw key=value wire form (logparse.LogLine of Job).
	Line string
	// Job is the ground-truth job behind the line: label, anomaly class,
	// trace identity, and the feature vector baselines score directly.
	Job flowbench.Job
}

// Stream is a fully generated scenario: the replayable event sequence.
// Events are ordered by non-decreasing At.
type Stream struct {
	Name   string
	Seed   uint64
	Events []Event
}

// Config parameterizes scenario generation. The zero value is usable: every
// field has a default (see fill).
type Config struct {
	// Workflow selects the Flow-Bench workflow traffic is drawn from
	// (default Genome).
	Workflow flowbench.Workflow
	// Events is the stream length (default 2000).
	Events int
	// Seed drives both the underlying dataset and the schedule (default 42).
	Seed uint64
	// Rate is the mean arrival rate in lines/sec at replay speed 1
	// (default 400).
	Rate float64
}

func (c *Config) fill() {
	if c.Workflow == "" {
		c.Workflow = flowbench.Genome
	}
	if c.Events <= 0 {
		c.Events = 2000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Rate <= 0 {
		c.Rate = 400
	}
}

// Def is one registered scenario.
type Def struct {
	// Name is the command-line identifier ("steady", "bursty", ...).
	Name string
	// Description summarizes the traffic shape and what it stresses.
	Description string

	gen func(*gen)
}

// All lists the built-in scenarios in taxonomy order (docs/SCENARIOS.md).
func All() []Def {
	return []Def{
		{"steady", "steady open-loop baseline: jittered arrivals at the nominal rate over 8 interleaved executions", genSteady},
		{"bursty", "long quiet gaps punctuated by 8–64-line same-instant bursts, so queue depth saturates visibly", genBursty},
		{"trace-heavy", "two concurrent executions emitting long contiguous runs — deep traces through the online tracker", genTraceHeavy},
		{"line-heavy", "many executions touched a few lines each — partial traces and tracker LRU churn", genLineHeavy},
		{"drift", "anomaly-free first half, then anomalous traces under a ramping covariate drift — detection quality decays in-stream", genDrift},
		{"near-dup", "each line arrives with same-instant exact and near duplicates, stressing the sentence-dedup coalescer", genNearDup},
	}
}

// Names returns the scenario names in All order.
func Names() []string {
	defs := All()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// Lookup finds a scenario by name.
func Lookup(name string) (Def, error) {
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
}

// Generate produces the scenario's stream for cfg. Identical (name, cfg)
// yield byte-identical streams.
func (d Def) Generate(cfg Config) *Stream {
	g := newGen(d.Name, cfg)
	d.gen(g)
	return g.stream()
}

// Labels returns the per-event ground-truth labels (0 normal, 1 anomalous).
func (s *Stream) Labels() []int {
	out := make([]int, len(s.Events))
	for i, ev := range s.Events {
		out[i] = ev.Job.Label
	}
	return out
}

// Sentences renders every event as the parsed feature sentence the detection
// endpoints consume.
func (s *Stream) Sentences() []string {
	out := make([]string, len(s.Events))
	for i, ev := range s.Events {
		out[i] = logparse.Sentence(ev.Job)
	}
	return out
}

// Duration is the schedule length: the last event's arrival offset.
func (s *Stream) Duration() time.Duration {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].At
}

// AnomalyRate is the ground-truth anomalous fraction of the stream.
func (s *Stream) AnomalyRate() float64 {
	if len(s.Events) == 0 {
		return 0
	}
	n := 0
	for _, ev := range s.Events {
		n += ev.Job.Label
	}
	return float64(n) / float64(len(s.Events))
}

// TraceTruth applies policy to the ground-truth labels of the events each
// trace actually emitted, answering "would this trace be flagged under
// perfect per-line detection?" — the reference the lab scores trace verdicts
// against. Keys are trace IDs present in the stream.
func (s *Stream) TraceTruth(policy core.TracePolicy) map[int]bool {
	jobs := make(map[int]int)
	anom := make(map[int]int)
	for _, ev := range s.Events {
		jobs[ev.Job.TraceID]++
		anom[ev.Job.TraceID] += ev.Job.Label
	}
	out := make(map[int]bool, len(jobs))
	for id, n := range jobs {
		out[id] = policy.Flagged(n, anom[id])
	}
	return out
}

// Hash returns a SHA-256 digest of the stream's canonical serialization
// (arrival offset, line, label per event) — the quantity the golden-file
// determinism tests pin.
func (s *Stream) Hash() string {
	h := sha256.New()
	for _, ev := range s.Events {
		h.Write([]byte(strconv.FormatInt(int64(ev.At), 10)))
		h.Write([]byte{'\t'})
		h.Write([]byte(ev.Line))
		h.Write([]byte{'\t'})
		h.Write([]byte(strconv.Itoa(ev.Job.Label)))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gen is the shared generator state scenario functions build streams with.
type gen struct {
	cfg    Config
	name   string
	rng    *tensor.RNG
	pool   [][]flowbench.Job // complete executions in seeded order
	next   int               // next pool trace to activate
	clock  time.Duration
	events []Event
}

func newGen(name string, cfg Config) *gen {
	cfg.fill()
	g := &gen{cfg: cfg, name: name, rng: tensor.NewRNG(cfg.Seed ^ nameSeed(name))}
	g.pool = tracePool(cfg, g.rng)
	return g
}

// nameSeed mixes the scenario name into the seed so every scenario draws
// distinct traffic from the same configured seed.
func nameSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// tracePool regenerates the workflow's Flow-Bench dataset and regroups it
// into complete executions (the splits shuffle jobs across traces), in an
// order shuffled by rng. Map iteration never reaches the output: trace IDs
// are sorted before the seeded permutation is applied.
func tracePool(cfg Config, rng *tensor.RNG) [][]flowbench.Job {
	ds := flowbench.Generate(cfg.Workflow, cfg.Seed)
	byTrace := flowbench.TraceJobs(ds.Jobs())
	ids := make([]int, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	pool := make([][]flowbench.Job, len(ids))
	for i, p := range rng.Perm(len(ids)) {
		pool[i] = byTrace[ids[p]]
	}
	return pool
}

// takeTrace activates the next pool execution, cycling if a scenario ever
// outruns the dataset.
func (g *gen) takeTrace() []flowbench.Job {
	t := g.pool[g.next%len(g.pool)]
	g.next++
	return t
}

// emit appends one event at the current clock.
func (g *gen) emit(j flowbench.Job) {
	g.events = append(g.events, Event{At: g.clock, Line: logparse.LogLine(j), Job: j})
}

func (g *gen) full() bool { return len(g.events) >= g.cfg.Events }

// meanGap is the nominal inter-arrival interval at Config.Rate.
func (g *gen) meanGap() time.Duration {
	mean := time.Duration(float64(time.Second) / g.cfg.Rate)
	if mean <= 0 {
		mean = time.Microsecond
	}
	return mean
}

// tick advances the clock by one jittered inter-arrival gap: uniform in
// [mean/2, 3·mean/2], so the average rate is Config.Rate. Integer duration
// arithmetic keeps schedules bit-identical across platforms.
func (g *gen) tick() { g.advance(g.meanGap()) }

// pause advances the clock by a jittered gap of mult nominal intervals — the
// quiet period between bursts.
func (g *gen) pause(mult int) { g.advance(g.meanGap() * time.Duration(mult)) }

func (g *gen) advance(mean time.Duration) {
	g.clock += mean/2 + time.Duration(g.rng.Intn(int(mean)+1))
}

func (g *gen) stream() *Stream {
	return &Stream{Name: g.name, Seed: g.cfg.Seed, Events: g.events}
}

// slots interleaves k concurrently executing traces, refilling each slot
// from pool (falling back to the generator's shared pool cursor) as
// executions complete — the shape of a workflow engine running k DAGs at
// once.
type slots struct {
	g   *gen
	cur [][]flowbench.Job // remaining jobs per slot
}

func (g *gen) newSlots(k int) *slots {
	return &slots{g: g, cur: make([][]flowbench.Job, k)}
}

// take pops the next job of slot i, activating a fresh execution when the
// slot's current one is exhausted.
func (s *slots) take(i int) flowbench.Job {
	if len(s.cur[i]) == 0 {
		s.cur[i] = s.g.takeTrace()
	}
	j := s.cur[i][0]
	s.cur[i] = s.cur[i][1:]
	return j
}
