// Service: train a detector once, serve it over HTTP in-process, and stream
// a workflow execution's log against it — trace-level aggregation included.
// This is the library's deployment story end to end.
//
//	go run ./examples/service
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

func main() {
	// 1. Train the detector (small budget; see cmd/anomalyd for full scale).
	det, report, err := core.Train(core.Options{
		Approach: core.SFT, Model: "distilbert-base-uncased",
		TrainSize: 600, PretrainSteps: 200, Epochs: 3, Debias: true, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector trained: %d params, held-out %s\n\n", report.Params, report.Test)

	// 2. Serve it over HTTP and query like a monitoring agent would.
	svc := core.NewServer(det)
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	ds := flowbench.Generate(flowbench.Genome, 7).Subsample(10, 10, 40, 8)

	body, _ := json.Marshal(core.DetectRequest{LogLine: logparse.LogLine(ds.Test[0])})
	resp, err := http.Post(srv.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var out core.DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("POST /v1/detect -> %s (score %.3f; true %s)\n\n",
		out.Category, out.Score, logparse.LabelWord(ds.Test[0].Label))

	// 3. Stream a log through the same server's monitor (what POST
	// /v1/monitor runs) and alert on anomalies.
	var logBuf bytes.Buffer
	for _, j := range ds.Test {
		logBuf.WriteString(logparse.LogLine(j))
		logBuf.WriteByte('\n')
	}
	fmt.Println("streaming the execution log through the server's MonitorIngest:")
	mrep, err := svc.MonitorIngest(context.Background(), &logBuf, false, core.SinkFuncs{OnAlert: func(a core.Alert) {
		fmt.Printf("  ALERT %s: %s\n", a.Result, truncate(logparse.Sentence(a.Job), 60))
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processed %d lines, %d alerts, %d traces flagged online\n\n",
		mrep.Processed, mrep.Alerts, mrep.FlaggedTraces)

	// 4. Trace-level verdicts.
	fmt.Println("trace verdicts:")
	for _, v := range core.DetectTraces(det, ds.Test, core.DefaultTracePolicy()) {
		status := "ok"
		if v.Flagged {
			status = "FLAGGED"
		}
		fmt.Printf("  trace %3d: %2d/%2d jobs abnormal -> %s\n", v.TraceID, v.Anomalous, v.Jobs, status)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return strings.TrimSpace(s[:n]) + "..."
}
