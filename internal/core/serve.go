package core

import (
	"context"
	"io"
	"net/http"
	"time"
)

// ListenAndServe serves root — s itself, or a handler wrapping it — on addr
// until ctx is done, then shuts down gracefully: it ends the /v1/alerts
// streams, which never go idle and so would hold http.Server.Shutdown, lets
// in-flight requests finish for up to ten seconds, and closes s. It closes s
// on every path, and returns the listener's error or Shutdown's.
func (s *Server) ListenAndServe(ctx context.Context, addr string, root http.Handler) error {
	defer s.Close()
	hs := &http.Server{Addr: addr, Handler: root}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.closeStreams()
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	return hs.Shutdown(sctx)
}

// Close drains queued requests, stops every model's inference workers,
// terminates any open /v1/alerts streams, and fails subsequent detect and
// monitor calls with errServerClosed. It is idempotent.
func (s *Server) Close() {
	s.closeStreams()
	s.reg.Close()
}

// DetectContext classifies sentences through the default model's coalescing
// layer, blocking until their results are ready (in input order). It is the
// programmatic form of the HTTP endpoints, is safe for concurrent use, and
// returns ctx.Err() as soon as ctx is done, whether the job is still queued
// or in flight. Requests shed by admission control or the queue-wait budget
// fail with an *OverloadedError (errors.Is errOverloaded) carrying a
// Retry-After estimate.
func (s *Server) DetectContext(ctx context.Context, sentences []string) ([]Result, error) {
	e, err := s.reg.lookup("")
	if err != nil {
		return nil, err
	}
	j, err := e.submit(ctx, sentences)
	if err != nil {
		return nil, err
	}
	res, _, err := j.wait()
	return res, err
}

// MonitorIngest streams raw log lines from r through the default model's
// micro-batching monitor; see MonitorIngestModel.
func (s *Server) MonitorIngest(ctx context.Context, r io.Reader, strict bool, extra ...AlertSink) (MonitorReport, error) {
	return s.MonitorIngestModel(ctx, "", r, strict, extra...)
}

// MonitorIngestModel reads raw key=value log lines (logparse.LogLine format)
// from r and streams them through the named model's micro-batching monitor
// ("" routes to the default). This is the paper's real-time detection loop
// (Section IV-C): the workflow management system appends to a log, and the
// monitor tails it, folding trace state into the model's persistent tracker
// and publishing every line detected as abnormal and every newly flagged
// trace to /v1/alerts subscribers, plus any extra sinks. It backs POST
// /v1/monitor and anomalyd's -tail mode.
//
// Inference goes through the same per-model coalescing queue as /v1/detect:
// each chunk of MaxBatch lines is submitted as one job, at most Workers at a
// time, so repeated lines in a chunk reach the model once, the model's
// cascade gate applies, and concurrent ingests share the worker pool's
// backpressure and admission control — /v1/monitor cannot starve detect
// traffic of workers, and a shed chunk ends the ingest with its
// *OverloadedError. The model name is resolved once at the start, so a ""
// stream stays on the model that was the default when it began; a chunk
// submitted after the registry closed fails with errServerClosed.
//
// ctx cancellation stops the run between lines; the partial report and
// ctx.Err() are returned. In strict mode the first malformed line aborts
// with an error naming its line number; otherwise malformed lines are
// skipped and counted.
func (s *Server) MonitorIngestModel(ctx context.Context, model string, r io.Reader, strict bool, extra ...AlertSink) (MonitorReport, error) {
	e, err := s.reg.lookup(model)
	if err != nil {
		return MonitorReport{}, err
	}
	return monitor(ctx, e, r, strict, append([]AlertSink{busSink{bus: s.bus, model: e.name}}, extra...))
}
