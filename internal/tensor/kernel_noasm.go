//go:build !amd64

package tensor

// Without an assembly implementation the Go loops in kernel.go are the only
// path; useAVX stays a variable so the tests that flip it compile everywhere.
var useAVX = false

const hasAVX2 = false

func axpy4Block(dst *float32, dc int, a *float32, ars, acs int, b *float32, bc, w, rows int) {
	panic("tensor: axpy4Block is amd64-only")
}

func dotRow4(dr, ar *float32, w int, b *float32, bc, groups int) {
	panic("tensor: dotRow4 is amd64-only")
}

func geluLanes(dst, src *float32, n int) { panic("tensor: geluLanes is amd64-only") }

func softmaxExpLanes(row *float32, n int, scale, maxv float32) {
	panic("tensor: softmaxExpLanes is amd64-only")
}

func scaleLanes(row *float32, n int, s float32) { panic("tensor: scaleLanes is amd64-only") }

func rowMaxLanes(row *float32, n int, scale float32) float32 {
	panic("tensor: rowMaxLanes is amd64-only")
}

func addLanes(dst, a, b *float32, n int) { panic("tensor: addLanes is amd64-only") }

func dotQ8Block8(dr *float32, x, w *int8, in, n int, sc *float32, nb, groups int) {
	panic("tensor: dotQ8Block8 is amd64-only")
}

func absmaxLanes(x *float32, n int) float32 { panic("tensor: absmaxLanes is amd64-only") }

func quantizeLanes(xq *int8, x *float32, n int, inv float32) {
	panic("tensor: quantizeLanes is amd64-only")
}

func peakMulAdd(n int) { panic("tensor: peakMulAdd is amd64-only") }

func peakMaddubs(n int) { panic("tensor: peakMaddubs is amd64-only") }
