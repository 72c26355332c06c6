package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
)

// handleAlerts is GET /v1/alerts: a Server-Sent Events stream of detection
// alerts (`event: alert`, AlertEvent data) and trace verdicts
// (`event: trace`, traceEvent data) from monitor ingest. The stream ends
// when the client disconnects or the server shuts its streams. A HEAD gets
// the stream's headers and no stream.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	if r.Method == http.MethodHead {
		return
	}
	sub := s.bus.subscribe()
	defer s.bus.unsubscribe(sub)
	fmt.Fprintf(w, ": streaming alerts\n\n")
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.streams:
			return
		case ev := <-sub.ch:
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
			fl.Flush()
		}
	}
}

// sseEvent is one pre-marshalled server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// sseSub is one /v1/alerts subscription: its event buffer plus delivery
// counters. dropped is written under the bus mutex and read through stats().
type sseSub struct {
	id      int
	ch      chan sseEvent
	dropped int64
}

// alertBus fans monitor events out to SSE subscribers. Publishing never
// blocks: a subscriber whose buffer is full misses the event (alerting is
// best-effort telemetry; /v1/monitor's report holds the authoritative
// counts) — but the miss is counted, per subscriber and in total, and
// surfaced in /v1/models so silent loss is at least visible loss.
type alertBus struct {
	mu      sync.Mutex
	subs    map[*sseSub]struct{}
	nextID  int
	dropped int64 // includes drops by since-departed subscribers
}

func newAlertBus() *alertBus { return &alertBus{subs: make(map[*sseSub]struct{})} }

func (b *alertBus) subscribe() *sseSub {
	b.mu.Lock()
	b.nextID++
	sub := &sseSub{id: b.nextID, ch: make(chan sseEvent, 64)}
	b.subs[sub] = struct{}{}
	b.mu.Unlock()
	return sub
}

func (b *alertBus) unsubscribe(sub *sseSub) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

func (b *alertBus) publish(name string, v interface{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return // nobody listening: skip the marshal on the ingest path
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	for sub := range b.subs {
		select {
		case sub.ch <- sseEvent{name: name, data: data}:
		default: // slow subscriber: drop rather than stall the monitor
			sub.dropped++
			b.dropped++
		}
	}
}

// stats snapshots the bus's delivery counters, per-subscriber rows sorted by
// subscription order.
func (b *alertBus) stats() SSEStats {
	b.mu.Lock()
	st := SSEStats{Subscribers: len(b.subs), Dropped: b.dropped}
	for sub := range b.subs {
		st.PerSubscriber = append(st.PerSubscriber, SSESubscriberStats{
			ID:      sub.id,
			Pending: len(sub.ch),
			Dropped: sub.dropped,
		})
	}
	b.mu.Unlock()
	sort.Slice(st.PerSubscriber, func(i, k int) bool {
		return st.PerSubscriber[i].ID < st.PerSubscriber[k].ID
	})
	return st
}

// busSink adapts the alert bus to the monitor's AlertSink interface,
// translating core events to their SSE wire forms stamped with the serving
// model's name.
type busSink struct {
	bus   *alertBus
	model string
}

func (b busSink) Alert(a Alert) {
	b.bus.publish("alert", AlertEvent{
		Model:  b.model,
		Line:   a.Line,
		Trace:  a.Job.TraceID,
		Node:   a.Job.NodeIndex,
		Result: toResponse(a.Result),
	})
}

func (b busSink) TraceFlagged(v TraceVerdict) {
	b.bus.publish("trace", traceEvent{
		Model:     b.model,
		Trace:     v.TraceID,
		Jobs:      v.Jobs,
		Anomalous: v.Anomalous,
		Fraction:  v.Fraction(),
		Flagged:   v.Flagged,
	})
}
