package tensor

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// The machine's arithmetic ceiling, measured in-tree: how many operations a
// second the instruction mix the kernels may use can issue on this CPU, so
// that a kernel's speed reads as a fraction of what it could be. fp32 is
// independent 256-bit VMULPS + VADDPS pairs (no fused multiply-add: the
// kernel contract forbids it); int8 is independent VPMADDUBSW + VPMADDWD +
// VPADDD chains, the byte multiply-accumulate of the int8 matmul. Both run on
// one goroutine per P, so the ceiling scales with -cpu as the fanned-out
// kernels do.

// peakRounds is the loop count of one peak routine call: 4096 rounds take
// about 10 µs, long enough to hide the call.
const peakRounds = 4096

type peakKind struct {
	name, unit string
	// perRound is the operations of one round: 7 pairs × 8 lanes × 2 flops;
	// 6 chains × 32 byte products × 2.
	perRound float64
	run      func(n int)
	// avail reports whether this CPU runs the routine.
	avail func() bool
}

var (
	peakFP32 = peakKind{"fp32", "GFLOP/s", 7 * 8 * 2, peakMulAdd, func() bool { return avxDetected }}
	peakInt8 = peakKind{"int8", "GOP/s", 6 * 32 * 2, peakMaddubs, func() bool { return avxDetected && hasAVX2 }}
)

// BenchmarkPeak reports each ceiling in operations per second across all Ps.
func BenchmarkPeak(b *testing.B) {
	for _, k := range []peakKind{peakFP32, peakInt8} {
		b.Run(k.name, func(b *testing.B) {
			if !k.avail() {
				b.Skip("the CPU lacks the instructions this ceiling issues")
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k.run(peakRounds)
				}
			})
			b.ReportMetric(float64(b.N)*peakRounds*k.perRound/b.Elapsed().Seconds()/1e9, k.unit)
		})
	}
}

type ceilingKey struct {
	kind  string
	procs int
}

var (
	ceilingMu sync.Mutex
	ceilings  = map[ceilingKey]float64{}
)

// ceiling is k's peak in operations per second at the current GOMAXPROCS,
// measured once per (kind, GOMAXPROCS) and kept: the best of five runs of
// 1 000 calls (about 10 ms) on one goroutine per P. It returns 0 where the
// CPU lacks the routine.
func ceiling(k peakKind) float64 {
	if !k.avail() {
		return 0
	}
	procs := runtime.GOMAXPROCS(0)
	key := ceilingKey{k.name, procs}
	ceilingMu.Lock()
	defer ceilingMu.Unlock()
	if c, ok := ceilings[key]; ok {
		return c
	}
	const calls = 1000
	var best float64
	for range 5 {
		var wg sync.WaitGroup
		start := time.Now()
		for range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range calls {
					k.run(peakRounds)
				}
			}()
		}
		wg.Wait()
		best = max(best, float64(procs)*float64(calls)*peakRounds*k.perRound/time.Since(start).Seconds())
	}
	ceilings[key] = best
	return best
}

// reportFracOfPeak reports the operations per second of b's ops-per-iteration
// workload as a share of k's ceiling at the benchmark's GOMAXPROCS.
func reportFracOfPeak(b *testing.B, k peakKind, ops float64) {
	if c := ceiling(k); c > 0 {
		b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/c, "frac_of_peak")
	}
}
