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
