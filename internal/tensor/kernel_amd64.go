package tensor

// useAVX routes axpyRows and dotRows to the routines in kernel_amd64.s. It is
// decided once, here; only the bit-pin tests flip it afterwards, to hold both
// implementations to the same reference.
var useAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS preserves YMM state.
func cpuHasAVX() bool

//go:noescape
func axpy4Block(dst *float32, dc int, a *float32, ars, acs int, b *float32, bc, w, rows int)

//go:noescape
func dotRow4(dr, ar *float32, w int, b *float32, bc, groups int)

// hasAVX2 is CPUID's AVX2 bit. The elementwise routines in exp_amd64.s build
// 2^n with 256-bit integer adds and shifts, which AVX alone does not have, so
// they run only where useLanes; useAVX covers the OS side for both.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func geluLanes(dst, src *float32, n int)

//go:noescape
func softmaxExpLanes(row *float32, n int, scale, maxv float32)

//go:noescape
func scaleLanes(row *float32, n int, s float32)

//go:noescape
func rowMaxLanes(row *float32, n int, scale float32) float32

//go:noescape
func addLanes(dst, a, b *float32, n int)

// dotQ8Block8 is one scale block of the int8 matmul for eight output channels
// at a time (qint8.go); AVX2, so it runs only where useLanes.
//
//go:noescape
func dotQ8Block8(dr *float32, x, w *int8, in, n int, sc *float32, nb, groups int)

// absmaxLanes and quantizeLanes are quantizeRowQ8's two passes over the first
// multiple of 8 elements of a row, where useLanes.
//
//go:noescape
func absmaxLanes(x *float32, n int) float32

//go:noescape
func quantizeLanes(xq *int8, x *float32, n int, inv float32)

// peakMulAdd and peakMaddubs are the ceilings BenchmarkPeak measures (fp32
// multiply-add and int8 multiply-accumulate issue rate); nothing else calls
// them.
func peakMulAdd(n int)

func peakMaddubs(n int)
