package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// clock is the generator's view of time, so the scheduling and latency
// accounting can be tested on a fake without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time         { return time.Now() }
func (wallClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

type errClass int

const (
	ok errClass = iota
	errShed
	errTimeout
	errServer
	errTransport
	errMalformed // 200 whose body is not JSON or carries the wrong number of results
)

// outcome is what happened to one request.
type outcome struct {
	req     int // index into stream.reqs
	measure bool
	class   errClass
	latency time.Duration // open loop: from the due instant; closed loop: from send
	late    time.Duration // open loop: dispatched − due
	labels  []int8        // served verdict per line (detect endpoints)
	report  core.MonitorReport
	detail  string // first line of a malformed or failed reply, for the offender list
	reqB    int
	respB   int
}

// sender turns a request into its outcome. The HTTP one is below; tests stub it.
type sender func(r *request) outcome

// runOpen sends reqs on their schedule whether or not earlier ones have
// returned, at most inflight at once. Latency runs from the instant a request
// was due, so the wait a stall imposes on the requests behind it is charged
// to them. Lateness is the generator's own: how long after the due instant
// the dispatcher got to the request. The dispatcher never waits for the
// system: it hands each request to a pool of inflight senders through a queue
// that holds them all, in order. onMeasure fires once, just before the first
// request due at or after measureFrom. It returns one outcome per request and
// how many requests found every sender busy.
func runOpen(clk clock, reqs []request, send sender, inflight int, measureFrom time.Duration, onMeasure func()) ([]outcome, int) {
	outs := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends: never blocks
	var busy atomic.Int64
	var wg sync.WaitGroup
	start := clk.Now()
	for s := 0; s < inflight; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				busy.Add(1)
				r := &reqs[i]
				o := send(r)
				o.req, o.measure, o.late = i, r.due >= measureFrom, outs[i].late
				o.latency = clk.Now().Sub(start.Add(r.due))
				outs[i] = o
				busy.Add(-1)
			}
		}()
	}
	capHits := 0
	for i := range reqs {
		due := start.Add(reqs[i].due)
		clk.SleepUntil(due)
		if onMeasure != nil && reqs[i].due >= measureFrom {
			onMeasure()
			onMeasure = nil
		}
		outs[i].late = clk.Now().Sub(due)
		if int(busy.Load()) == inflight {
			capHits++
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs, capHits
}

// runClosed keeps clients requests in flight for d: each client sends its
// next request as soon as the previous one returns. Requests are taken from
// reqs in order starting at *next, wrapping at the end. Every request started
// is finished and returned; wall is the time to the last completion.
func runClosed(clk clock, reqs []request, send sender, clients int, d time.Duration, next *atomic.Int64, measure bool) (outs []outcome, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := clk.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.Now().Before(deadline) {
				i := int((next.Add(1) - 1) % int64(len(reqs)))
				sent := clk.Now()
				o := send(&reqs[i])
				o.req, o.measure = i, measure
				o.latency = clk.Now().Sub(sent)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, clk.Now().Sub(start)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        2 * inflightCap,
			MaxIdleConnsPerHost: 2 * inflightCap,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// httpSender posts requests to base and decodes the reply far enough to
// check its shape and keep the served verdicts.
func httpSender(client *http.Client, base string) sender {
	return func(r *request) outcome {
		o := outcome{reqB: len(r.body)}
		resp, err := client.Post(base+r.path, r.ctype, bytes.NewReader(r.body))
		if err != nil {
			o.class, o.detail = errTransport, err.Error()
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				o.class = errTimeout
			}
			return o
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		o.respB = len(body)
		switch {
		case err != nil:
			o.class, o.detail = errTransport, err.Error()
		case resp.StatusCode == http.StatusTooManyRequests:
			o.class, o.detail = errShed, firstLine(body)
		case resp.StatusCode == http.StatusGatewayTimeout:
			o.class, o.detail = errTimeout, firstLine(body)
		case resp.StatusCode != http.StatusOK:
			o.class, o.detail = errServer, resp.Status+": "+firstLine(body)
		default:
			o.decode(r, body)
		}
		return o
	}
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 160 {
		b = b[:160]
	}
	return string(b)
}

func (o *outcome) decode(r *request, body []byte) {
	bad := func(why string) {
		o.class, o.detail = errMalformed, why+": "+firstLine(body)
	}
	switch r.kind {
	case kindSingle:
		var d core.DetectResponse
		if err := json.Unmarshal(body, &d); err != nil {
			bad("not JSON")
			return
		}
		if !consistent(d) {
			bad("label/category/score disagree")
			return
		}
		o.labels = []int8{int8(d.Label)}
	case kindBatch:
		var b core.BatchResponse
		if err := json.Unmarshal(body, &b); err != nil {
			bad("not JSON")
			return
		}
		if len(b.Results) != r.n {
			bad("short reply")
			return
		}
		o.labels = make([]int8, r.n)
		for i, d := range b.Results {
			if !consistent(d) {
				bad("label/category/score disagree")
				return
			}
			o.labels[i] = int8(d.Label)
		}
	case kindMonitor:
		var m core.MonitorResponse
		if err := json.Unmarshal(body, &m); err != nil {
			bad("not JSON")
			return
		}
		if m.Error != "" {
			bad("monitor error " + m.Error)
			return
		}
		o.report = m.MonitorReport
	}
}

// consistent checks one verdict against itself: a 0/1 label, the matching
// category word, a probability, and no brownout answer (none is configured).
func consistent(d core.DetectResponse) bool {
	want := "normal"
	if d.Label == 1 {
		want = "abnormal"
	}
	return (d.Label == 0 || d.Label == 1) && d.Category == want && d.Score >= 0 && d.Score <= 1 && !d.Degraded
}
