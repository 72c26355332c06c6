package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
	allocMB float64
	gcs     uint32
	gcPause time.Duration
}

func snapshot() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		allocMB: float64(m.TotalAlloc) / (1 << 20),
		gcs:     m.NumGC,
		gcPause: time.Duration(m.PauseTotalNs),
	}
}

func (a usage) since(b usage) usage {
	return usage{cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs, allocMB: a.allocMB - b.allocMB,
		gcs: a.gcs - b.gcs, gcPause: a.gcPause - b.gcPause}
}

// peakRSSMB is the process's maximum resident set so far (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// rssMB is the process's resident set now: the second field of
// /proc/self/statm, in pages. It reads 0 where there is no /proc.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// watchRSS samples the resident set every rssEvery until stop is called,
// which returns the largest sample. The kernel's own high-water mark
// (ru_maxrss) cannot be used for the load phase: training sets it.
func watchRSS() (stop func() float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	peak := rssMB()
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return max(peak, rssMB())
	}
}

const rssEvery = 100 * time.Millisecond

// engineStats reads the served model's counters the way an operator would:
// GET /v1/models. Through the gateway this is the fleet merge.
func engineStats(client *http.Client, base string) (core.EngineStats, error) {
	resp, err := client.Get(base + "/v1/models")
	if err != nil {
		return core.EngineStats{}, err
	}
	defer resp.Body.Close()
	var mr core.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return core.EngineStats{}, fmt.Errorf("decode /v1/models: %w", err)
	}
	for _, m := range mr.Models {
		if m.Default {
			return m.Stats, nil
		}
	}
	return core.EngineStats{}, fmt.Errorf("/v1/models lists no default model")
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name, labels string
	value        float64
}

// scrapeMetrics reads the gateway's GET /metrics.
func scrapeMetrics(client *http.Client, base string) ([]promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []promSample
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(text, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(text[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: text[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.name, s.labels = s.name[:i], s.name[i:]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// provenance is the environment and input header every output carries.
// Two outputs are comparable only if their stream hashes are equal.
type provenance struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	StreamHash string `json:"stream_sha256"`
}

func newProvenance(w workload, seed uint64, seconds int, hash string) provenance {
	p := provenance{
		Commit: "unknown", Go: runtime.Version(), CPU: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: w.name, Seed: seed, Seconds: seconds, StreamHash: hash,
	}
	// Stamped by the go command when the build ran inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					p.CPU = strings.TrimSpace(l[i+1:])
					break
				}
			}
		}
	}
	return p
}
