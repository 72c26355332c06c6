package transformer

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The forward.
//
// A batch of B token sequences is packed into one [ΣTᵢ, dModel] matrix plus
// an offsets slice of B+1 row bounds, as FlashAttention's varlen
// cu_seqlens. Position-wise layers — the six linear projections per block,
// layer norms, and activations — then run once over the packed matrix
// instead of B times, which is where the throughput win over per-sequence
// forwards comes from; only attention is computed per sequence, since
// softmax must not mix positions across sequences. Every position-wise
// kernel computes a row from that row alone, so packing moves no bit.
//
// Nor does cutting the batch: an untaped encoder forward — classification
// and pooled features, what SFT serving and evaluation run — packs its
// batch in groups of consecutive whole sequences of at most groupRows rows
// and runs them one after another on one rewound arena (poolGroups), so a
// worker's footprint is one group's rows plus the [B, dModel] output,
// whatever the batch (TestGroupBoundariesMatchAlone,
// TestEncoderFootprintIsBounded). The causal forwards pack the whole
// batch, since the sharing below spans it.
//
// A row no caller reads is not computed either. An untaped causal forward
// — next-token logits, a decoder's pooled features — reads only each
// sequence's last position, and that position's hidden state after the
// last block depends on the other rows only through that block's keys and
// values. So the last block runs LN1, K and V over every row, and Q, the
// attention, Wo, the residual, LN2, the feed-forward and the final norm over
// the B last rows alone (the last flag of runBlocksBatch, Block.forward and
// MultiHeadAttention.forward). Since every kernel computes a row from that
// row alone, each of those rows keeps the bits it has in a forward over
// every row (TestLastRowForwardMatchesAllRows).
//
// Nor is a row computed twice. Under causal masking a position's hidden
// state depends only on its own sequence's tokens up to it (and the cached
// prefix they all continue), so two sequences that begin with the same
// tokens hold the same rows there, bit for bit. An untaped causal forward
// packs its batch as a prefix tree (pack): a sequence borrows the rows of
// the longest leading run it shares with an earlier sequence and owns only
// the rest. Embeddings, layer norms, projections and feed-forwards run on
// owned rows; attention gathers each borrowing sequence's keys and values
// into one buffer, so every kernel sees the operands the sequence run alone
// gives it (TestSharedHeadForwardMatchesUnshared). A chunk of log-line
// suffixes shares its leading fields, so the streaming monitor's chunks
// borrow many of their rows. A forward that continues a KVCache also
// borrows from earlier forwards: the cache keeps a bounded prefix tree of
// the K/V rows its forwards shared (suffixtree.go), and a sequence borrows
// the longer of the run an earlier sequence of its batch shares and the run
// the tree holds, never its last position, whose hidden state the last block
// reads (TestCrossChunkHeadsMatchFresh).
//
// This is the only forward. Serving and evaluation run it without a tape:
// it reads only the model's parameters, and writes only a KVCache's suffix
// tree, under that tree's lock, so one trained model and one cache serve
// concurrent calls from many goroutines (the property core.Server's workers,
// core.DetectTraces and sft's evaluation fan-out rely on). Training runs it
// on an nn.Tape (forwardClsTape, forwardLMTape, inside Trainer's step), which
// turns dropout on and records what the backward pass needs.
//
// Every temporary — packed activations, per-sequence attention scores, even
// the per-sequence view headers — is drawn from a tensor.Workspace arena:
// a long-lived owner such as a core.Server worker passes its own and resets
// it between batches; a one-shot caller passes nil and gets plain allocation
// (tensor.Workspace's nil contract); a taped forward uses the tape's. The
// residual stream and the final norm come from the caller's workspace, and
// each sublayer's scratch from its child, which the forward rewinds itself
// (runBlocksBatch). The serving entry points return fresh heap allocations,
// never arena-backed, so callers may Reset the workspace freely afterwards.

// encodeBatch embeds each sequence and runs the packed batch through the
// block stack and final layer norm, returning the packed hidden states
// [ΣTᵢ, dModel] (with last, each sequence's last row only: [B, dModel], over
// a batch packed as a prefix tree) and the segment offsets, both
// arena-backed. Sequences longer than MaxSeqLen are truncated keeping the
// head, which holds the classification token and earliest features; empty
// sequences panic.
func (m *Model) encodeBatch(seqs [][]int, last bool, ws *tensor.Workspace, tape *nn.Tape) (*tensor.Matrix, []int) {
	truncated := false
	for i, ids := range seqs {
		if len(ids) == 0 {
			panic("transformer: empty sequence in batch")
		}
		if len(ids) > m.Config.MaxSeqLen {
			if !truncated {
				// Truncation must not mutate the caller's batch.
				seqs = append([][]int(nil), seqs...)
				truncated = true
			}
			seqs[i] = ids[:m.Config.MaxSeqLen]
		}
	}
	offsets, tree := pack(seqs, last, nil, ws)
	h := m.embedBatch(seqs, offsets, 0, ws, tape)
	return m.runBlocksBatch(h, offsets, tree, nil, last, ws, tape), offsets
}

// prefixTree is how a packed batch shares rows: sequence s borrows its first
// dep[s] positions and owns the rest. Its first hit[s] positions are pinned
// nodes of the cache's suffix tree st, path[pstart[s]:][:hit[s]]; the rest
// of its head comes from the rows of from[s], an earlier sequence that
// starts with the same tokens. slot[r] is the suffix-tree slot the forward
// writes packed row r's keys and values into, or −1, and layer the block
// the forward is in. The zero value shares nothing; without a suffix tree
// (st nil), nothing is cached or kept.
type prefixTree struct {
	dep, from               []int
	st                      *suffixTree
	hit, pstart, path, slot []int
	layer                   int
}

// pack lays a batch out: sequence s owns packed rows [offsets[s],
// offsets[s+1]). With share (an untaped causal forward, whose rows depend on
// their sequence's earlier tokens alone), s borrows the longest leading run
// it has in common with any earlier sequence, or the longer run st (the
// KVCache's suffix tree, nil for none) holds for it, and owns only the
// positions after it, so the batch packs as a prefix tree with one row per
// node it computes. A sequence borrows its last position only from a row,
// never from the suffix tree, since the last block reads that position's
// hidden state. The scan compares each sequence with every earlier one,
// O(B²·T), and draws everything from ws; a batch that shares nothing gets
// the zero tree. With st, the tree's nodes the batch uses stay pinned, and
// the rows it shares have slots reserved, until settle.
func pack(seqs [][]int, share bool, st *suffixTree, ws *tensor.Workspace) ([]int, prefixTree) {
	offsets := ws.GetInts(len(seqs) + 1)
	offsets[0] = 0
	var t prefixTree
	if !share {
		for s, ids := range seqs {
			offsets[s+1] = offsets[s] + len(ids)
		}
		return offsets, t
	}
	t.dep, t.from = ws.GetInts(len(seqs)), ws.GetInts(len(seqs))
	if st != nil {
		t.st = st
		t.hit, t.pstart = ws.GetInts(len(seqs)), ws.GetInts(len(seqs)+1)
		t.pstart[0] = 0
		for s, ids := range seqs {
			t.pstart[s+1] = t.pstart[s] + len(ids)
		}
		t.path = ws.GetInts(t.pstart[len(seqs)])
		st.lookup(seqs, &t)
	}
	shared := false
	for s, ids := range seqs {
		d, from := 0, 0
		for c := 0; c < s && d < len(ids); c++ {
			n := 0
			for n < len(ids) && n < len(seqs[c]) && ids[n] == seqs[c][n] {
				n++
			}
			if n > d {
				d, from = n, c
			}
		}
		if d == len(ids) {
			if _, node := t.locate(offsets, from, d-1); node >= 0 {
				d-- // the last position is a node: compute it
			}
		}
		t.dep[s], t.from[s] = max(d, t.cached(s)), from
		shared = shared || t.dep[s] > 0
		offsets[s+1] = offsets[s] + len(ids) - t.dep[s]
	}
	if st != nil {
		t.slot = ws.GetInts(offsets[len(seqs)])
		st.admit(seqs, offsets, t)
	}
	if !shared {
		// Nothing borrowed: no node is pinned and no slot reserved.
		t = prefixTree{}
	}
	return offsets, t
}

// settle hands a finished forward's suffix-tree state back
// (suffixTree.settle).
func (t prefixTree) settle(seqs [][]int, offsets []int) {
	if t.st != nil {
		t.st.settle(seqs, offsets, t)
	}
}

// depth is how many leading positions sequence s borrows.
func (t prefixTree) depth(s int) int {
	if t.dep == nil {
		return 0
	}
	return t.dep[s]
}

// cached is how many leading positions sequence s reads from suffix-tree
// nodes.
func (t prefixTree) cached(s int) int {
	if t.hit == nil {
		return 0
	}
	return t.hit[s]
}

// locate returns where position p of sequence s is held: packed row row
// (node −1), or suffix-tree node node (row −1).
func (t prefixTree) locate(offsets []int, s, p int) (row, node int) {
	for {
		if d := t.depth(s); p >= d {
			return offsets[s] + p - d, -1
		}
		if p < t.cached(s) {
			return -1, t.path[t.pstart[s]+p]
		}
		s = t.from[s]
	}
}

// sources walks sequence s's positions [0, n) from the last down and calls
// fn for each run [lo, hi) of them: held in packed rows row… (nodes nil),
// or in the suffix-tree nodes nodes (row −1). Each ancestor a holds
// positions [dep[a], n) of the rest in its own rows.
func (t prefixTree) sources(offsets []int, s, n int, fn func(lo, hi, row int, nodes []int)) {
	for a := s; n > 0; a = t.from[a] {
		if d := t.depth(a); d < n {
			fn(d, n, offsets[a], nil)
			n = d
		}
		if n > 0 && n <= t.cached(a) {
			fn(0, n, -1, t.path[t.pstart[a]:][:n])
			return
		}
	}
}

// gather copies sequence s's keys (half 0) or values (half 1) at positions
// [0, T) — its borrowed head, then its own rows of the packed x — into the
// first T rows of dst.
func (t prefixTree) gather(dst, x *tensor.Matrix, offsets []int, s, half int) {
	c := x.Cols
	t.sources(offsets, s, t.depth(s)+offsets[s+1]-offsets[s], func(lo, hi, row int, nodes []int) {
		if nodes == nil {
			copy(dst.Data[lo*c:hi*c], x.Data[row*c:])
			return
		}
		for i, nd := range nodes {
			copy(dst.Row(lo+i), t.st.kvRow(nd, t.layer, half))
		}
	})
}

// keep copies the packed keys k and values v of every row with a reserved
// slot into the slot, at the forward's layer.
func (t prefixTree) keep(k, v *tensor.Matrix) {
	for r, i := range t.slot {
		if i >= 0 {
			copy(t.st.kvRow(i, t.layer, 0), k.Row(r))
			copy(t.st.kvRow(i, t.layer, 1), v.Row(r))
		}
	}
}

// runBlocksBatch drives the packed batch through the block stack and the
// final layer norm. Without a tape, h is the residual stream, which every
// block updates in place, drawing one sublayer's intermediates at a time
// from one scratch arena: the child of the caller's workspace (of a pooled
// one when the caller passes nil), kept for its life, so a worker's scratch
// settles at the size of the largest packed batch it runs — one group, for
// an encoder (poolGroups) — however the packed row count varies. What
// outlives a sublayer — the residual stream, the last block's
// gather, the normalized output — comes from the caller's workspace (plain
// allocation for nil), never the scratch. A taped forward keeps every
// block's intermediates for backward, in the tape's arena. tree is the
// batch's sharing (see pack), past the per-layer KV cache (nil when
// uncached). With last (untaped and causal only), the final block and norm
// run on each sequence's last row alone, and the output is [B, dModel].
func (m *Model) runBlocksBatch(h *tensor.Matrix, offsets []int, tree prefixTree, past []LayerKV, last bool, ws *tensor.Workspace, tape *nn.Tape) *tensor.Matrix {
	scratch := ws
	if tape == nil {
		parent := ws
		if parent == nil {
			parent = tensor.GetWorkspace()
			defer tensor.PutWorkspace(parent)
		}
		scratch = parent.Child()
	}
	for li, b := range m.Blocks {
		kv := LayerKV{}
		if past != nil {
			kv = past[li]
		}
		tree.layer = li
		h, _ = b.forward(h, offsets, tree, kv, last && li == len(m.Blocks)-1, ws, scratch, tape, false)
	}
	return m.FinalLN.Forward(h, ws, tape)
}

// embedBatch gathers token+position embeddings for the rows each sequence
// owns: the last offsets[s+1]−offsets[s] of its tokens (all of them unless
// it borrows a head, see pack). Positions restart at posStart for every
// sequence (posStart is nonzero when the batch continues a cached shared
// prefix).
func (m *Model) embedBatch(seqs [][]int, offsets []int, posStart int, ws *tensor.Workspace, tape *nn.Tape) *tensor.Matrix {
	total := offsets[len(offsets)-1]
	flat := ws.GetInts(total)
	pos := ws.GetInts(total)
	n := 0
	for s, ids := range seqs {
		head := len(ids) - (offsets[s+1] - offsets[s])
		for p, id := range ids[head:] {
			flat[n] = id
			pos[n] = posStart + head + p
			n++
		}
	}
	h := m.TokEmb.Forward(flat, ws, tape)
	pe := m.PosEmb.Forward(pos, ws, tape)
	return tensor.Add(h, h, pe)
}

// LayerKV holds the cached key and value projections of one attention layer
// over a prompt prefix ([Tprefix, dModel] each).
type LayerKV struct {
	K, V *tensor.Matrix
}

// KVCache is an inference-time cache of a causal model's per-layer keys and
// values over a fixed prompt prefix. ICL evaluation shares one few-shot
// prefix across hundreds of queries; caching it turns each query from a
// full-prompt forward pass into a suffix-only pass (the same optimization
// production LLM servers apply to shared system prompts).
//
// Layers and Len are read-only after construction. The one mutable part is
// the suffix tree InferKVCache gives a cache: the forwards that continue
// the cache look up, reserve, publish and evict its nodes under the tree's
// own mutex, held for none of a forward's arithmetic, and a node a forward
// reads is pinned until it ends (suffixtree.go). ScoreChoiceBatchWithCacheWS
// otherwise reads only the model's parameters, so one cache can serve
// concurrent queries from many goroutines. The tree is runtime state: it
// holds at most treeBytes of K/V and is never serialized.
type KVCache struct {
	Layers []LayerKV
	// Len is the prefix length in tokens.
	Len int
	// tree keeps the suffix rows its forwards shared (suffixtree.go); nil
	// for a cache not built by InferKVCache.
	tree *suffixTree
}

// InferKVCache captures each attention layer's keys and values over the
// prefix on the untaped forward, so a cache can be built while other
// goroutines run inference on the same model. The model must be causal and
// the prefix must fit in MaxSeqLen.
func (m *Model) InferKVCache(prefix []int) *KVCache {
	if !m.Config.Causal {
		panic("transformer: KV cache requires a causal model")
	}
	if len(prefix) == 0 {
		panic("transformer: empty prefix")
	}
	if len(prefix) > m.Config.MaxSeqLen {
		panic("transformer: prefix exceeds MaxSeqLen")
	}
	ws := tensor.GetWorkspace()
	defer tensor.PutWorkspace(ws)
	offsets := ws.GetInts(2)
	offsets[0], offsets[1] = 0, len(prefix)
	h := m.embedBatch([][]int{prefix}, offsets, 0, ws, nil)
	cache := &KVCache{Len: len(prefix), tree: newSuffixTree(len(m.Blocks), m.Config.DModel, treeBytes)}
	for _, b := range m.Blocks {
		var kv LayerKV
		h, kv = b.forward(h, offsets, prefixTree{}, LayerKV{}, false, ws, ws.Child(), nil, true)
		cache.Layers = append(cache.Layers, kv)
	}
	return cache
}

// nextTokenLogits computes next-token logits [B, VocabSize] for a batch of
// sequences that all continue cache's prefix; a nil cache is no prefix, and
// the sequences are then whole prompts. A shared few-shot prompt is encoded
// once per cache instead of once per query, and only the B final positions
// run the last block's queries and feed-forward, the final norm and the LM
// head (see the batch header above). Every sequence must be non-empty and
// fit in MaxSeqLen after the prefix. The output is drawn from out (nil
// allocates); the choice-scoring path passes the scratch workspace, since it
// reduces the logits to the few choice columns before returning and a full
// vocabulary row per sequence is the batch's largest single garbage producer
// otherwise.
func (m *Model) nextTokenLogits(cache *KVCache, seqs [][]int, ws, out *tensor.Workspace) *tensor.Matrix {
	if !m.Config.Causal {
		panic("transformer: next-token logits require a causal model")
	}
	if len(seqs) == 0 {
		return tensor.New(0, m.Config.VocabSize)
	}
	var past []LayerKV
	var st *suffixTree
	start := 0
	if cache != nil {
		past, start, st = cache.Layers, cache.Len, cache.tree
	}
	for _, ids := range seqs {
		if len(ids) == 0 {
			panic("transformer: empty sequence in batch")
		}
		if start+len(ids) > m.Config.MaxSeqLen {
			panic("transformer: sequence exceeds MaxSeqLen")
		}
	}
	offsets, tree := pack(seqs, true, st, ws)
	h := m.embedBatch(seqs, offsets, start, ws, nil)
	h = m.runBlocksBatch(h, offsets, tree, past, true, ws, nil)
	tree.settle(seqs, offsets)
	return m.LMHead.Forward(h, out, nil)
}

// ScoreChoiceBatchWithCacheWS is the constrained decoding ICL classifies
// with: for each sequence continuing cache's prefix it returns the index of
// the highest-logit choice token (the choices are the label words' first
// tokens) and the softmax over just those choices. A nil cache is no prefix:
// each sequence is then a whole prompt, which the caller cuts to MaxSeqLen.
// The vocabulary logits stay in the workspace — only the per-choice
// probabilities are returned, freshly allocated.
func (m *Model) ScoreChoiceBatchWithCacheWS(cache *KVCache, seqs [][]int, choices []int, ws *tensor.Workspace) ([]int, [][]float32) {
	logits := m.nextTokenLogits(cache, seqs, ws, ws)
	return chooseFromLogits(logits, len(seqs), choices)
}

// ForwardClsBatchWS classifies a batch of sequences in one packed forward
// pass, returning logits [B, NumClasses]. Sequences longer than MaxSeqLen
// keep their head. The classification head runs only on the B pooled
// vectors, and the returned logits are heap-allocated.
func (m *Model) ForwardClsBatchWS(seqs [][]int, ws *tensor.Workspace) *tensor.Matrix {
	if len(seqs) == 0 {
		return tensor.New(0, m.Config.NumClasses)
	}
	return m.ClsHead.Forward(m.PooledBatchWS(seqs, ws), nil, nil)
}

// PooledBatchWS returns what the classification head reads, [B, DModel] in
// ws: the features head-only training caches. Encoders pool the mean over
// positions, which unlike [CLS] carries signal even from a backbone frozen
// after MLM-only pre-training; decoders pool the last position, the only one
// that has seen the whole sequence under causal masking.
func (m *Model) PooledBatchWS(seqs [][]int, ws *tensor.Workspace) *tensor.Matrix {
	pooled, _ := m.pool(seqs, ws, nil)
	return pooled
}

// pool is PooledBatchWS, optionally on a tape, also returning the offsets
// (nil for an untaped encoder, whose pooling no backward pass undoes).
// Untaped, a decoder's forward computes only the last rows, which are the
// pooled vectors, and an encoder's runs in groups (poolGroups); a taped one
// computes every row for backward, and pools them.
func (m *Model) pool(seqs [][]int, ws *tensor.Workspace, tape *nn.Tape) (*tensor.Matrix, []int) {
	last := m.Config.Causal && tape == nil
	if tape == nil && !last {
		return m.poolGroups(seqs, ws), nil
	}
	h, offsets := m.encodeBatch(seqs, last, ws, tape)
	if last {
		return h, offsets
	}
	pooled := ws.GetZeroed(len(seqs), m.Config.DModel)
	m.poolInto(pooled, 0, h, offsets)
	return pooled, offsets
}

// groupRows is how many packed rows an untaped encoder forward runs at once
// (poolGroups): about four of bulk-sft's 29-token sentences. It is at least
// the encoders' MaxSeqLen of 64, so a group holds two sequences or more, and
// at bert-base's width no projection of a group is large enough to fan out
// over goroutines. Chosen on bulk-sft's peak RSS against 256, 512 and the
// whole batch (docs/PERFORMANCE.md).
const groupRows = 128

// poolGroups is an untaped encoder's pool: it runs the batch through
// encodeBatch one group at a time — consecutive whole sequences whose rows,
// after truncation to MaxSeqLen, fit groupRows, or one longer sequence
// alone — each on the child of ws, rewound before the group starts, and
// mean-pools each group into its rows of the [B, dModel] output, drawn
// from ws. Attention never crosses a sequence and every other kernel
// computes a row from that row alone, so grouping moves no bit
// (TestGroupBoundariesMatchAlone); what it bounds is the arena, which holds
// one group's rows plus the output, whatever the batch. With nil ws the
// groups run on a pooled workspace and the output is heap-allocated.
func (m *Model) poolGroups(seqs [][]int, ws *tensor.Workspace) *tensor.Matrix {
	pooled := ws.GetZeroed(len(seqs), m.Config.DModel)
	g := ws.Child()
	if g == nil {
		g = tensor.GetWorkspace()
		defer tensor.PutWorkspace(g)
	}
	for lo, hi := 0, 0; lo < len(seqs); lo = hi {
		hi, _ = m.group(seqs, lo)
		g.Reset()
		h, offsets := m.encodeBatch(seqs[lo:hi], false, g, nil)
		m.poolInto(pooled, lo, h, offsets)
	}
	return pooled
}

// group returns the end of the group poolGroups runs from sequence lo,
// seqs[lo:hi], and its packed rows.
func (m *Model) group(seqs [][]int, lo int) (hi, rows int) {
	n := func(ids []int) int { return min(len(ids), m.Config.MaxSeqLen) }
	hi, rows = lo+1, n(seqs[lo])
	for hi < len(seqs) && rows+n(seqs[hi]) <= groupRows {
		rows += n(seqs[hi])
		hi++
	}
	return hi, rows
}

// poolInto writes the pooled vector of each sequence s of the packed h into
// row at+s of pooled, which must be zeroed: the mean of the sequence's rows
// for an encoder, its last row for a decoder.
func (m *Model) poolInto(pooled *tensor.Matrix, at int, h *tensor.Matrix, offsets []int) {
	for s := 0; s+1 < len(offsets); s++ {
		lo, hi := offsets[s], offsets[s+1]
		pr := pooled.Row(at + s)
		if m.Config.Causal {
			copy(pr, h.Row(hi-1))
		} else {
			inv := 1 / float32(hi-lo)
			for i := lo; i < hi; i++ {
				for j, v := range h.Row(i) {
					pr[j] += v * inv
				}
			}
		}
	}
}

// lastRows gathers the row of each sequence's last position from the packed
// x into a [B, Cols] matrix from ws: its own last row, or for a sequence
// that owns none, the row of the one it borrows that position from.
func lastRows(x *tensor.Matrix, offsets []int, tree prefixTree, ws *tensor.Workspace) *tensor.Matrix {
	out := ws.Get(len(offsets)-1, x.Cols)
	for s := 0; s+1 < len(offsets); s++ {
		last := tree.depth(s) + offsets[s+1] - offsets[s] - 1
		r, _ := tree.locate(offsets, s, last)
		copy(out.Row(s), x.Row(r))
	}
	return out
}

// chooseFromLogits reduces per-row vocabulary logits to the best index and
// softmax over the candidate choice tokens.
func chooseFromLogits(logits *tensor.Matrix, n int, choices []int) ([]int, [][]float32) {
	best := make([]int, n)
	probs := make([][]float32, n)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		sub := make([]float32, len(choices))
		for c, id := range choices {
			sub[c] = row[id]
		}
		tensor.Softmax(sub)
		best[i] = tensor.ArgMax(sub)
		probs[i] = sub
	}
	return best, probs
}
