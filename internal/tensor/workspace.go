package tensor

import (
	"math/bits"
	"sync"
)

// Workspace is an arena of reusable scratch buffers for the steady-state
// inference path. Layers request temporaries with Get/GetZeroed/GetInts/
// RowView; the owner calls Reset between requests, which rewinds the arena so
// the same buffers (headers and backing slices) are handed out again. After a
// warm-up call per batch shape, a forward pass through the whole block stack
// performs zero heap allocations.
//
// A Workspace is NOT safe for concurrent use: it belongs to one goroutine at
// a time (a core.Server inference worker owns one for its lifetime; one-shot
// callers borrow one from the package pool via GetWorkspace/PutWorkspace).
// Buffers returned by Get remain valid until the next Reset — never retain
// one past that point; copy results that must outlive the workspace.
//
// A nil *Workspace is valid everywhere one is accepted and degrades to plain
// allocation, so cold paths can pass nil instead of threading an arena.
type Workspace struct {
	bufs   []*Matrix
	next   int
	views  []*Matrix
	vnext  int
	ints   [][]int
	inext  int
	int8s  [][]int8
	i8next int
	// child is the arena Child hands out, kept for the workspace's life.
	child *Workspace
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get returns a rows×cols scratch matrix whose contents are unspecified
// (kernels that assign or zero their destination — every MatMul* variant —
// can use it directly; accumulating callers want GetZeroed).
func (w *Workspace) Get(rows, cols int) *Matrix {
	if w == nil {
		return New(rows, cols)
	}
	if w.next == len(w.bufs) {
		w.bufs = append(w.bufs, &Matrix{})
	}
	m := w.bufs[w.next]
	w.next++
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n, regrow(cap(m.Data), n))
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// regrow is the capacity an arena slot holding old elements takes when it
// must hold n > old. A first allocation is exact. A slot that has to grow
// again serves varying shapes — an untaped causal batch's packed row count
// changes batch by batch with how much its sequences share — so it takes a
// quarter more than asked and settles after a batch or two, instead of
// reallocating at every new maximum.
func regrow(old, n int) int {
	if old == 0 {
		return n
	}
	return n + n/4
}

// GetZeroed returns a zeroed rows×cols scratch matrix.
func (w *Workspace) GetZeroed(rows, cols int) *Matrix {
	if w == nil {
		return New(rows, cols)
	}
	m := w.Get(rows, cols)
	m.Zero()
	return m
}

// GetInts returns a length-n int scratch slice with unspecified contents.
func (w *Workspace) GetInts(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	if w.inext == len(w.ints) {
		w.ints = append(w.ints, nil)
	}
	s := w.ints[w.inext]
	if cap(s) < n {
		s = make([]int, n, regrow(cap(s), n))
		w.ints[w.inext] = s
	}
	w.inext++
	return s[:n]
}

// getInt8s returns a length-n int8 scratch slice with unspecified contents.
// The int8 inference path draws its quantized-activation buffers from here.
func (w *Workspace) getInt8s(n int) []int8 {
	if w == nil {
		return make([]int8, n)
	}
	if w.i8next == len(w.int8s) {
		w.int8s = append(w.int8s, nil)
	}
	s := w.int8s[w.i8next]
	if cap(s) < n {
		s = make([]int8, n, regrow(cap(s), n))
		w.int8s[w.i8next] = s
	}
	w.i8next++
	return s[:n]
}

// RowView returns a matrix header aliasing rows [lo, hi) of m, like
// Matrix.rowView but with the header itself drawn from the arena so repeated
// per-sequence views allocate nothing.
func (w *Workspace) RowView(m *Matrix, lo, hi int) *Matrix {
	if w == nil {
		return m.rowView(lo, hi)
	}
	if lo < 0 || hi < lo || hi > m.Rows {
		panic("tensor: workspace row view out of range")
	}
	if w.vnext == len(w.views) {
		w.views = append(w.views, &Matrix{})
	}
	v := w.views[w.vnext]
	w.vnext++
	v.Rows, v.Cols, v.Data = hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols]
	return v
}

// ShapedView returns a rows×cols matrix header over the first rows*cols
// elements of m's backing slice, with the header drawn from the arena. It is
// how one max-sized scratch buffer serves a sequence of smaller shapes (the
// attention kernel reuses a single score buffer across every sequence of a
// batch): the data is shared, only the shape differs. m must hold at least
// rows*cols elements.
func (w *Workspace) ShapedView(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if n > len(m.Data) {
		panic("tensor: workspace shaped view larger than its buffer")
	}
	if w == nil {
		return NewFrom(rows, cols, m.Data[:n])
	}
	if w.vnext == len(w.views) {
		w.views = append(w.views, &Matrix{})
	}
	v := w.views[w.vnext]
	w.vnext++
	v.Rows, v.Cols, v.Data = rows, cols, m.Data[:n]
	return v
}

// Reset rewinds the arena: every buffer handed out since the previous Reset
// is considered free and will be reused by subsequent Gets. Capacity is
// retained.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.next, w.vnext, w.inext, w.i8next = 0, 0, 0, 0
}

// Child returns the workspace's child arena, created on first use and kept
// for the workspace's life: a forward draws each sublayer's scratch from its
// caller's workspace's child. Its user rewinds it; the parent's Reset does
// not. A nil workspace's child is nil.
func (w *Workspace) Child() *Workspace {
	if w == nil {
		return nil
	}
	if w.child == nil {
		w.child = &Workspace{}
	}
	return w.child
}

// Bytes returns the bytes the arena holds: the capacity of every float, int
// and int8 slot, handed out since the last Reset or not, and its child's.
// View headers are not counted. A nil workspace holds none.
func (w *Workspace) Bytes() int {
	if w == nil {
		return 0
	}
	n := 0
	for _, m := range w.bufs {
		n += 4 * cap(m.Data)
	}
	for _, s := range w.ints {
		n += bits.UintSize / 8 * cap(s)
	}
	for _, s := range w.int8s {
		n += cap(s)
	}
	return n + w.child.Bytes()
}

var workspacePool = sync.Pool{New: func() any { return &Workspace{} }}

// GetWorkspace borrows a workspace from the package pool. Pair it with
// PutWorkspace (typically via defer). A long-lived owner, such as a
// core.Server inference worker, makes its own with NewWorkspace instead: a
// pooled workspace keeps the arena its last user grew.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// PutWorkspace resets w and returns it to the pool. w must not be used after.
func PutWorkspace(w *Workspace) {
	if w == nil {
		return
	}
	w.Reset()
	workspacePool.Put(w)
}
