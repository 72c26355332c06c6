package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Tape is what a training forward records for its backward pass (tape-based
// reverse mode, as in PyTorch autograd): each layer's Forward pushes what its
// Backward needs — its input, the normalized rows, a dropout mask — and
// Backward pops it. Records are LIFO, so a network runs backward in the
// reverse of its forward order.
//
// A taped forward's activations and Backward's scratch come from the tape's
// own workspace, never a pooled one: a training forward keeps every layer's
// activations alive at once (a 512-token prompt's attention probabilities
// are megabytes per layer), and a pooled arena would hand that size on to
// whichever serving worker took it next. Reset empties the tape and rewinds
// the arena, so nothing a taped forward or Backward returned outlives it.
type Tape struct {
	ws   *tensor.Workspace
	recs []record
	mats []*tensor.Matrix
}

// record is one layer's entry: the layer's name, which Pop checks, the ids
// or offsets it saved, and where its matrices start in Tape.mats.
type record struct {
	layer string
	ints  []int
	lo    int
}

// NewTape returns an empty tape with its own workspace.
func NewTape() *Tape { return &Tape{ws: tensor.NewWorkspace()} }

// WS returns the tape's workspace, or nil (which allocates) for a nil tape.
func (t *Tape) WS() *tensor.Workspace {
	if t == nil {
		return nil
	}
	return t.ws
}

// Push records layer's entry; a nil tape (inference) records nothing.
func (t *Tape) Push(layer string, ints []int, mats ...*tensor.Matrix) {
	if t == nil {
		return
	}
	t.recs = append(t.recs, record{layer, ints, len(t.mats)})
	t.mats = append(t.mats, mats...)
}

// Pop removes the newest record, which must be layer's, and returns what it
// saved. It panics, naming layer, on an empty tape (a Backward with no
// Forward) or on another layer's record (a backward out of order).
func (t *Tape) Pop(layer string) ([]int, []*tensor.Matrix) {
	if t == nil || len(t.recs) == 0 {
		panic(fmt.Sprintf("nn: %s: Backward on an empty tape", layer))
	}
	r := t.recs[len(t.recs)-1]
	if r.layer != layer {
		panic(fmt.Sprintf("nn: %s: Backward popped the record of %s", layer, r.layer))
	}
	mats := t.mats[r.lo:]
	t.recs, t.mats = t.recs[:len(t.recs)-1], t.mats[:r.lo]
	return r.ints, mats
}

// Reset empties the tape and rewinds its workspace.
func (t *Tape) Reset() {
	t.recs, t.mats = t.recs[:0], t.mats[:0]
	t.ws.Reset()
}
