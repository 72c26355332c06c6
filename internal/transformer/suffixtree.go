package transformer

import "sync"

// The cross-chunk suffix tree.
//
// An untaped causal forward computes a shared leading run of its batch once
// (pack), and a KVCache keeps what its forwards shared for the next ones: a
// prefix tree over the suffix positions that continue the cache's prefix,
// one node per position, holding that position's keys and values for every
// layer. A position's keys and values depend only on the cached prefix and
// the suffix tokens up to it, so a node lends a later sequence that begins
// with the same tokens exactly the rows it would compute itself. A streaming
// monitor's chunks repeat their leading fields (the tokenizer buckets
// numbers), so later chunks find much of their heads here.
//
// The tree's memory is fixed: treeBytes of K/V, in a slab allocated on the
// first admission. What it admits is what a batch's own prefix tree shared,
// rows a later sequence of the batch borrowed, which the tree did not hold
// yet. When every slot is taken, CLOCK evicts a leaf that no forward pins
// and none has read since the hand last passed.
//
// Every field below is guarded by mu, which no forward holds while it
// computes: pack looks sequences up and reserves slots under it, the forward
// reads pinned nodes' rows and writes its reserved slots without it, and
// settle publishes and unpins under it afterwards. A pinned node is never
// evicted or rewritten, and a reserved slot is invisible to lookups until it
// is published, so the rows a forward touches unlocked are its own.

// treeBytes is the K/V budget of one KVCache's suffix tree: 455 positions
// at the served mistral shape (6 layers, K and V, 96 floats each). With it
// the streaming monitor computes 55 % of its suffix rows; twice the budget
// computed 51 %, but raised the monitor's peak RSS by the slab's size, 7 %
// (docs/PERFORMANCE.md, "keep shared suffix heads across chunks").
const treeBytes = 2 << 20

// A slot is free, reserved by a forward that is writing it, or a live node.
const (
	slotFree uint8 = iota
	slotReserved
	slotLive
)

// suffixTree is the bounded prefix tree of a KVCache's suffix positions.
// The root is the cached prefix itself and holds no slot; a node's parent
// is −1 at depth 0.
type suffixTree struct {
	mu sync.Mutex
	// layers and width shape a node's rows; slots is the capacity.
	layers, width, slots int
	// kv holds slot i's keys for layer l at ((i·layers+l)·2)·width and its
	// values right after. It and the per-slot fields are allocated on the
	// first reservation.
	kv                              []float32
	parent, token, child, sib, pins []int32
	state                           []uint8
	ref                             []bool
	// root heads the list of depth-0 nodes, linked through sib as every
	// node's children are from child.
	root int32
	// used counts the slots handed out at least once; hand is CLOCK's.
	used, hand int
	// rows counts the suffix positions forwards looked up, computed those
	// they computed, lent those they read from nodes, and evicted the nodes
	// CLOCK took back.
	rows, computed, lent, evicted int
}

// newSuffixTree returns an empty tree of budget bytes of K/V for a model of
// layers blocks of width dModel.
func newSuffixTree(layers, width, budget int) *suffixTree {
	return &suffixTree{layers: layers, width: width, slots: budget / (4 * 2 * layers * width), root: -1}
}

// kvRow returns slot i's keys (half 0) or values (half 1) at layer l.
func (st *suffixTree) kvRow(i, l, half int) []float32 {
	off := ((i*st.layers+l)*2 + half) * st.width
	return st.kv[off : off+st.width]
}

// find returns parent's child for token tok, or −1.
func (st *suffixTree) find(parent int32, tok int) int32 {
	i := st.root
	if parent >= 0 {
		i = st.child[parent]
	}
	for ; i >= 0; i = st.sib[i] {
		if int(st.token[i]) == tok {
			return i
		}
	}
	return -1
}

// attach publishes reserved slot i as parent's child for tok.
func (st *suffixTree) attach(i, parent int32, tok int) {
	st.parent[i], st.token[i], st.state[i], st.ref[i] = parent, int32(tok), slotLive, true
	if parent < 0 {
		st.sib[i], st.root = st.root, i
	} else {
		st.sib[i], st.child[parent] = st.child[parent], i
	}
}

// detach unlinks leaf i from its parent's children.
func (st *suffixTree) detach(i int32) {
	head := &st.root
	if p := st.parent[i]; p >= 0 {
		head = &st.child[p]
	}
	for *head != i {
		head = &st.sib[*head]
	}
	*head = st.sib[i]
}

// alloc allocates the slab and the per-slot fields, once.
func (st *suffixTree) alloc() {
	n := st.slots
	st.kv = make([]float32, n*st.layers*2*st.width)
	st.parent, st.token, st.child, st.sib, st.pins = make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	st.state, st.ref = make([]uint8, n), make([]bool, n)
}

// reserve takes a slot for a forward to write: one never used, one freed,
// or, by CLOCK, an unpinned leaf not read since the hand last passed it. It
// returns −1 when every slot is pinned, reserved or inner.
func (st *suffixTree) reserve() int32 {
	if st.kv == nil {
		st.alloc()
	}
	i := int32(-1)
	if st.used < st.slots {
		i = int32(st.used)
		st.used++
	}
	// Two turns of the hand clear every reference bit it passes.
	for n := 0; i < 0 && n < 2*st.slots; n++ {
		j := int32(st.hand)
		st.hand = (st.hand + 1) % st.slots
		switch {
		case st.state[j] == slotFree:
			i = j
		case st.state[j] == slotReserved || st.pins[j] > 0 || st.child[j] >= 0:
		case st.ref[j]:
			st.ref[j] = false
		default:
			st.detach(j)
			st.evicted++
			i = j
		}
	}
	if i >= 0 {
		st.state[i], st.child[i], st.ref[i] = slotReserved, -1, false
	}
	return i
}

// lookup fills t's cached depths for seqs: hit[s] is the longest path
// sequence s's tokens follow in the tree, capped at len−1 so that s still
// computes its last row. Every node on a hit path is pinned and marked
// referenced.
func (st *suffixTree) lookup(seqs [][]int, t *prefixTree) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for s, ids := range seqs {
		path := t.path[t.pstart[s]:]
		n, node := 0, int32(-1)
		for n < len(ids) {
			if node = st.find(node, ids[n]); node < 0 {
				break
			}
			path[n] = int(node)
			n++
		}
		t.hit[s] = min(n, len(ids)-1)
		st.lent += t.hit[s]
		for _, nd := range path[:t.hit[s]] {
			st.pins[nd]++
			st.ref[nd] = true
		}
	}
}

// admit reserves a slot for each packed row t's batch shares (a later
// sequence gathers it) whose parent is the root, a pinned node or another
// reserved row; t.slot[r] is row r's slot, or −1. A row the tree already
// holds (a sequence's last, which it computes however deep its hit) is
// reserved too, and settle frees the slot.
func (st *suffixTree) admit(seqs [][]int, offsets []int, t prefixTree) {
	for r := range t.slot {
		t.slot[r] = -1
	}
	const wanted = -2
	for s := range seqs {
		t.sources(offsets, s, t.depth(s), func(lo, hi, row int, _ []int) {
			if row >= 0 {
				for r := row; r < row+hi-lo; r++ {
					t.slot[r] = wanted
				}
			}
		})
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.rows += t.pstart[len(seqs)]
	st.computed += offsets[len(seqs)]
	full := false
	for s := range seqs {
		for r := offsets[s]; r < offsets[s+1]; r++ {
			p, want := t.dep[s]+r-offsets[s], t.slot[r] == wanted
			t.slot[r] = -1
			if !want || full {
				continue
			}
			if p > 0 {
				if up, node := t.locate(offsets, s, p-1); node < 0 && t.slot[up] < 0 {
					continue
				}
			}
			i := st.reserve()
			full = i < 0
			t.slot[r] = int(i)
		}
	}
}

// settle ends t's forward, which has written every reserved slot: each
// reserved row is published as its parent's child, unless another forward
// published that node first, when the row's slot is freed and it takes the
// published node's place as a parent. Then every hit path is unpinned.
func (st *suffixTree) settle(seqs [][]int, offsets []int, t prefixTree) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for s, ids := range seqs {
		for r := offsets[s]; r < offsets[s+1]; r++ {
			i := t.slot[r]
			if i < 0 {
				continue
			}
			p, parent := t.dep[s]+r-offsets[s], int32(-1)
			if p > 0 {
				up, node := t.locate(offsets, s, p-1)
				if node < 0 {
					node = t.slot[up]
				}
				parent = int32(node)
			}
			if dup := st.find(parent, ids[p]); dup >= 0 {
				st.state[i] = slotFree
				st.ref[dup] = true
				t.slot[r] = int(dup)
				continue
			}
			st.attach(int32(i), parent, ids[p])
		}
	}
	for s := range seqs {
		for _, nd := range t.path[t.pstart[s] : t.pstart[s]+t.hit[s]] {
			st.pins[nd]--
		}
	}
}
