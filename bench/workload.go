package main

import "time"

// Every rate, size and duration of the benchmark is a constant in this file,
// chosen once on the seed commit on a 2-core box. Nothing is derived at run
// time from measured capacity, so both sides of a later A/B see identical
// load. Change a constant here and every recorded baseline is void.

const (
	// trainSeed anchors dataset sampling, initialisation and training. The
	// --seed argument never reaches it: the seed changes inputs only, the
	// model under test is the same on every run.
	trainSeed = 9

	// warmup is sent before the measured window and left out of every tally
	// but gen.warmup_sent: it fills the workspace arenas, the connection
	// pool and (ICL) the prompt-prefix KV cache.
	warmup = 1500 * time.Millisecond

	// clientTimeout bounds one request; a reply later than this is a
	// failure (gen.err_timeout), never a hang.
	clientTimeout = 5 * time.Second

	// inflightCap bounds open-loop requests in flight; a request that finds
	// them all taken queues in the generator, on the system's account.
	inflightCap = 64

	// lateLimit is the generator-health guard: p99 of (dispatched − due)
	// above it discards an open-loop load phase. One scheduler preemption
	// slice (10ms) is how long the dispatcher can wait for a P when every P
	// runs kernels, without anything being wrong; on the seed commit the
	// figure reads 2–6ms. Twice the slice is the generator being starved.
	lateLimit = 20 * time.Millisecond

	// shedDepth is the production overload budget of the interactive
	// workloads (core.BatchConfig.ShedQueueDepth).
	shedDepth = 64
)

// sftBudget and iclBudget are the reduced training budgets of the two
// reference models (the serving defaults bert-base-uncased and mistral).
// Forward cost does not depend on how long a model trained, so the budgets
// are the smallest that give the SFT detector non-degenerate verdicts; the
// ICL detector needs minutes to discriminate and is served as it comes out.
var (
	sftBudget = struct {
		model                   string
		train, pretrain, epochs int
		lr                      float64
	}{"bert-base-uncased", 250, 40, 2, 2e-3}
	iclBudget = struct {
		model                                   string
		train, pretrain, lora, perPrompt, shots int
	}{"mistral", 250, 30, 30, 2, 5}
)

type loop int

const (
	closedLoop loop = iota
	openLoop
)

// workload is one traffic mix and the serving configuration it runs against.
type workload struct {
	name string
	why  string
	loop loop

	icl     bool // ICL mistral int8 behind /v1/monitor; otherwise SFT fp32 behind /v1/detect*
	cascade bool // ngram stage-1 gate at default recall
	shed    bool // ShedQueueDepth armed
	fleet   bool // anomalygw over two replicas of nproc/2 workers each

	clients   int     // closed loop: concurrent clients (0 = nproc)
	batch     int     // closed loop: lines per request
	requests  int     // closed loop: requests generated; the stream wraps if a run outlasts them
	rate      float64 // open loop: request arrivals per second
	maxBatch  int     // core.BatchConfig.MaxBatch
	slo       time.Duration
	verifyOne int // verdicts of one request in verifyOne are recomputed in-process
	ladder    int // lines the traced ladder pushes through every depth
}

var workloads = []workload{
	{
		name: "bulk-sft",
		why:  "closed-loop 64-line batches, fp32 SFT, cascade off, no repeats: encoder forward capacity; a kernel gain must show here",
		loop: closedLoop, batch: 64, requests: 640, maxBatch: 64,
		slo: 250 * time.Millisecond, verifyOne: 8, ladder: 640,
	},
	{
		name: "interactive-sft",
		why:  "open-loop Poisson singles and bursts with 20% repeats, cascade and shedding on: HTTP, queue, flush and dedup latency at quarter load",
		loop: openLoop, cascade: true, shed: true, rate: interactiveRate, maxBatch: 32,
		slo: 50 * time.Millisecond, verifyOne: 2, ladder: 512,
	},
	{
		name: "monitor-icl-int8",
		why:  "one client streaming a trace-heavy log to /v1/monitor, int8 ICL over a cached few-shot prefix: decoder, Q8 kernels and stream ingest",
		loop: closedLoop, icl: true, clients: 1, batch: 64, requests: 160, maxBatch: 32,
		slo: 1000 * time.Millisecond, verifyOne: 4, ladder: 128,
	},
	{
		name: "fleet-interactive",
		why:  "the interactive-sft stream, rate and SLO through anomalygw over two half-size replicas: what the gateway hop adds",
		loop: openLoop, cascade: true, shed: true, fleet: true, rate: interactiveRate, maxBatch: 32,
		slo: 50 * time.Millisecond, verifyOne: 2, ladder: 512,
	},
}

// interactiveRate is shared by interactive-sft and fleet-interactive so the
// difference between them isolates the gateway. It keeps the process about a
// quarter busy on the seed commit. At twice the rate (half busy, what the
// issue asked for) the host slowing by a quarter, which this VM does for an
// hour at a time, doubled p50_ms and took slo_share from 0.97 to 0.75 on the
// fleet: latency at half load measures the neighbours.
const interactiveRate = 150

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
