package scenario

import (
	"encoding/json"
	"fmt"
	"io"
)

// BenchEntry is one row of a load-lab report. The load lab emits one entry
// per scenario × detector, with ns_per_op carrying nanoseconds per line and
// the quality and saturation measurements under "extra".
type BenchEntry struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Extra   map[string]float64 `json:"extra,omitempty"`
}

// BenchReport is the document `loadlab -out` writes.
type BenchReport struct {
	Recorded string       `json:"recorded"` // RFC3339 UTC timestamp
	CPU      string       `json:"cpu"`
	Command  string       `json:"command"`
	Entries  []BenchEntry `json:"benchmarks"`
}

// Write renders the report as indented JSON.
func (r *BenchReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Entry converts a batch-replay result into its report row.
func (r *Result) Entry(detector string) BenchEntry {
	nsPerLine := 0.0
	if r.Events > 0 {
		nsPerLine = r.WallSeconds * 1e9 / float64(r.Events)
	}
	e := BenchEntry{
		Name:    fmt.Sprintf("LoadLab/%s/%s", r.Scenario, detector),
		NsPerOp: nsPerLine,
		Extra: map[string]float64{
			"events":            float64(r.Events),
			"requests":          float64(r.Requests),
			"errors":            float64(r.Errors),
			"lines_per_sec":     r.LinesPerSec,
			"client_p50_ms":     r.ClientP50Ms,
			"client_p99_ms":     r.ClientP99Ms,
			"queue_wait_p50_ms": r.Server.QueueWaitP50Ms,
			"queue_wait_p99_ms": r.Server.QueueWaitP99Ms,
			"compute_p50_ms":    r.Server.ComputeP50Ms,
			"compute_p99_ms":    r.Server.ComputeP99Ms,
			"max_queue_len":     float64(r.Server.MaxQueueLen),
			"dedup_saved":       float64(r.Server.DedupSaved),
			"batch_occupancy":   r.Server.BatchOccupancy,
			"roc_auc":           r.Quality.AUC,
			"avg_precision":     r.Quality.AP,
			"line_f1":           r.Quality.LineF1,
			"trace_f1":          r.Quality.TraceF1,
		},
	}
	// Overload and chaos columns appear only on runs that exercised them.
	if r.Errors > 0 || r.DegradedReqs > 0 || r.Server.Shed+r.Server.Expired+r.Server.Degraded > 0 {
		e.Extra["err_timeout"] = float64(r.Failures.Timeout)
		e.Extra["err_shed"] = float64(r.Failures.Shed)
		e.Extra["err_server"] = float64(r.Failures.Server)
		e.Extra["err_transport"] = float64(r.Failures.Transport)
		e.Extra["degraded_reqs"] = float64(r.DegradedReqs)
		e.Extra["server_shed"] = float64(r.Server.Shed)
		e.Extra["server_expired"] = float64(r.Server.Expired)
		e.Extra["server_degraded"] = float64(r.Server.Degraded)
	}
	if r.Phases != nil {
		e.Extra["pre_p99_ms"] = r.Phases.PreP99Ms
		e.Extra["during_p99_ms"] = r.Phases.DuringP99Ms
		e.Extra["post_p99_ms"] = r.Phases.PostP99Ms
		e.Extra["recovery_ms"] = r.Phases.RecoveryMs
	}
	// Cascade columns appear only when the stage-1 gate evaluated traffic.
	if r.Server.CascadeEvaluated > 0 {
		e.Extra["cascade_evaluated"] = float64(r.Server.CascadeEvaluated)
		e.Extra["cascade_short_circuited"] = float64(r.Server.CascadeShort)
		e.Extra["cascade_pass_fraction"] = r.Server.CascadePassFraction
	}
	return e
}

// Entry converts a monitor-replay result into its report row.
func (m *MonitorResult) Entry(detector string) BenchEntry {
	nsPerLine := 0.0
	if m.Events > 0 {
		nsPerLine = m.WallSeconds * 1e9 / float64(m.Events)
	}
	return BenchEntry{
		Name:    fmt.Sprintf("LoadLabMonitor/%s/%s", m.Scenario, detector),
		NsPerOp: nsPerLine,
		Extra: map[string]float64{
			"events":         float64(m.Events),
			"lines_per_sec":  m.LinesPerSec,
			"alerts":         float64(m.Report.Alerts),
			"flagged_traces": float64(m.Report.FlaggedTraces),
			"malformed":      float64(m.Report.Malformed),
		},
	}
}
