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
