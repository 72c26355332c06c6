package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/scenario"
	"repro/internal/tensor"
)

type reqKind int

const (
	kindSingle  reqKind = iota // POST /v1/detect, one log_line
	kindBatch                  // POST /v1/detect/batch, sentences
	kindMonitor                // POST /v1/monitor, plain-text log lines
)

// line is one generated log line: what the detector sees and the truth.
type line struct {
	sentence string
	label    int
}

// request is one pre-built HTTP request. Bodies are marshalled during
// set-up so the generator does no encoding inside the measured window.
type request struct {
	due   time.Duration // open loop: offset from the start of warm-up
	kind  reqKind
	path  string
	ctype string
	body  []byte
	first int // lines[first : first+n] are the lines this request carries
	n     int
}

// stream is a workload's full input for one seed.
type stream struct {
	lines []line
	reqs  []request
	hash  string
}

// buildStream generates w's requests from seed alone: the same seed gives
// byte-identical requests, a different seed different ones. span is the
// length of the open-loop schedule (warm-up plus measured window).
func buildStream(w workload, seed uint64, span time.Duration) *stream {
	s := &stream{}
	switch {
	case w.icl:
		s.monitorPosts(w, seed)
	case w.loop == closedLoop:
		s.bulkBatches(w, seed)
	default:
		s.interactive(w, seed, span)
	}
	h := sha256.New()
	for _, r := range s.reqs {
		h.Write([]byte(strconv.FormatInt(int64(r.due), 10)))
		h.Write([]byte{'\t'})
		h.Write([]byte(r.path))
		h.Write([]byte{'\t'})
		h.Write(r.body)
		h.Write([]byte{'\n'})
	}
	s.hash = hex.EncodeToString(h.Sum(nil))
	return s
}

// dataSeed separates the run's input data from the training data: the model
// is fitted on Generate(trainSeed) and never sees this dataset.
func dataSeed(seed uint64) uint64 { return seed + 0x5eed0000 }

func (s *stream) add(r request, jobs []flowbench.Job) {
	r.first, r.n = len(s.lines), len(jobs)
	for _, j := range jobs {
		s.lines = append(s.lines, line{sentence: logparse.Sentence(j), label: j.Label})
	}
	s.reqs = append(s.reqs, r)
}

func batchBody(jobs []flowbench.Job) []byte {
	req := core.BatchRequest{Sentences: make([]string, len(jobs))}
	for i, j := range jobs {
		req.Sentences[i] = logparse.Sentence(j)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// bulkBatches draws w.requests batches of w.batch distinct jobs from a
// seeded permutation of the whole dataset: no sentence repeats, so neither
// the engine's dedup nor any future verdict cache can answer for free.
func (s *stream) bulkBatches(w workload, seed uint64) {
	jobs := flowbench.Generate(flowbench.Genome, dataSeed(seed)).Jobs()
	perm := tensor.NewRNG(seed).Perm(len(jobs))
	for r := 0; r < w.requests; r++ {
		batch := make([]flowbench.Job, w.batch)
		for i := range batch {
			batch[i] = jobs[perm[(r*w.batch+i)%len(perm)]]
		}
		s.add(request{kind: kindBatch, path: "/v1/detect/batch", ctype: "application/json", body: batchBody(batch)}, batch)
	}
}

// monitorPosts cuts the scenario lab's trace-heavy log (two executions
// emitting long contiguous runs) into plain-text posts of w.batch lines.
func (s *stream) monitorPosts(w workload, seed uint64) {
	def, err := scenario.Lookup("trace-heavy")
	if err != nil {
		panic(err) // built-in scenario
	}
	ev := def.Generate(scenario.Config{Workflow: flowbench.Genome, Events: w.requests * w.batch, Seed: dataSeed(seed)}).Events
	for lo := 0; lo+w.batch <= len(ev); lo += w.batch {
		var sb strings.Builder
		jobs := make([]flowbench.Job, w.batch)
		for i, e := range ev[lo : lo+w.batch] {
			sb.WriteString(e.Line)
			sb.WriteByte('\n')
			jobs[i] = e.Job
		}
		s.add(request{kind: kindMonitor, path: "/v1/monitor", ctype: "text/plain", body: []byte(sb.String())}, jobs)
	}
}

// Interactive mix: 90% single log lines, 10% same-trace bursts of 8–32
// lines. A quarter of singles are followed within 10ms by an identical request
// and a fifth of burst lines copy an earlier line of the burst, so about 20%
// of lines are exact repeats of a line sent at most 10ms earlier — what the
// engine's dedup exists for.
//
// The seed decides when each request arrives, which jobs it carries and which
// requests are bursts or echoes; it does not decide how many there are of
// each. Arrivals are a Poisson process conditioned on its count (sorted
// uniform instants), and kinds and burst sizes are dealt from a shuffled deck,
// so every seed offers the same amount of work and the run-to-run spread is
// the system's, not the draw's.
const (
	burstEvery    = 10 // one arrival in ten is a burst
	burstMin      = 8
	burstMax      = 32
	echoEvery     = 4 // one single in four is echoed
	burstDupEvery = 5 // one burst line in five copies an earlier line of the burst
	echoWindow    = 10 * time.Millisecond
	activeTraces  = 8
)

func (s *stream) interactive(w workload, seed uint64, span time.Duration) {
	rng := tensor.NewRNG(seed)
	byTrace := flowbench.TraceJobs(flowbench.Generate(flowbench.Genome, dataSeed(seed)).Jobs())
	ids := make([]int, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Ints(ids) // map order must not reach the stream
	order := rng.Perm(len(ids))
	nextTrace := 0
	slots := make([][]flowbench.Job, activeTraces)
	// take hands out the next k jobs of the slot's trace, moving the slot on
	// to a fresh trace when fewer are left, so a request is never cut short.
	take := func(slot, k int) []flowbench.Job {
		if len(slots[slot]) < k {
			slots[slot] = byTrace[ids[order[nextTrace%len(order)]]]
			nextTrace++
		}
		out := slots[slot][:k]
		slots[slot] = slots[slot][k:]
		return out
	}

	var reqs []request
	var jobsOf [][]flowbench.Job
	// Warm-up and measured window are dealt separately, so the measured
	// window's content does not depend on what fell into the warm-up.
	for _, part := range [][2]time.Duration{{0, min(warmup, span)}, {min(warmup, span), span}} {
		n := int(w.rate * (part[1] - part[0]).Seconds())
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = part[0] + time.Duration(rng.Float64()*float64(part[1]-part[0]))
		}
		sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
		deal := rng.Perm(n) // deal[i] is arrival i's card
		bursts, singles := 0, 0
		for i, due := range at {
			slot := rng.Intn(activeTraces)
			if deal[i]%burstEvery == 0 {
				// Sizes cycle through 8..32 over the deck, so their total is fixed.
				size := burstMin + bursts%(burstMax-burstMin+1)
				bursts++
				// One line in five repeats an earlier line of the burst.
				dups := size / burstDupEvery
				burst := append(make([]flowbench.Job, 0, size), take(slot, size-dups)...)
				for ; dups > 0; dups-- {
					from := rng.Intn(len(burst))
					at := from + 1 + rng.Intn(len(burst)-from)
					burst = append(burst, flowbench.Job{})
					copy(burst[at+1:], burst[at:])
					burst[at] = burst[from]
				}
				reqs = append(reqs, request{due: due, kind: kindBatch, ctype: "application/json",
					path: "/v1/detect/batch?trace=" + strconv.Itoa(burst[0].TraceID), body: batchBody(burst)})
				jobsOf = append(jobsOf, burst)
				continue
			}
			j := take(slot, 1)
			body, err := json.Marshal(core.DetectRequest{LogLine: logparse.LogLine(j[0])})
			if err != nil {
				panic(err) // strings always marshal
			}
			r := request{due: due, kind: kindSingle, ctype: "application/json",
				path: "/v1/detect?trace=" + strconv.Itoa(j[0].TraceID), body: body}
			reqs, jobsOf = append(reqs, r), append(jobsOf, j)
			if singles++; singles%echoEvery == 0 {
				r.due = min(due+time.Duration(rng.Intn(int(echoWindow))), part[1]-1)
				reqs, jobsOf = append(reqs, r), append(jobsOf, j)
			}
		}
	}
	// Echoes were appended out of order; the dispatcher wants due order.
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return reqs[idx[a]].due < reqs[idx[b]].due })
	for _, i := range idx {
		s.add(reqs[i], jobsOf[i])
	}
}
