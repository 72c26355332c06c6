package transformer

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// allRowsLast is the last-row pin's reference: every row of the batch runs
// through the whole block stack and the final norm, and each sequence's last
// row is gathered afterwards. cache may be nil.
func allRowsLast(m *Model, cache *KVCache, seqs [][]int) *tensor.Matrix {
	var past []LayerKV
	start := 0
	if cache != nil {
		past, start = cache.Layers, cache.Len
	}
	offsets := make([]int, len(seqs)+1)
	for i, ids := range seqs {
		offsets[i+1] = offsets[i] + len(ids)
	}
	h := m.embedBatch(seqs, offsets, start, nil, nil)
	h = m.runBlocksBatch(h, offsets, prefixTree{}, past, false, nil, nil)
	last := tensor.New(len(seqs), m.Config.DModel)
	for s := range seqs {
		copy(last.Row(s), h.Row(offsets[s+1]-1))
	}
	return last
}

// lastRowCase is one model and batch the pin runs: the suffixes continue
// prefix (nil: no cache, the suffixes are whole prompts). build returns a
// fresh model, so each precision quantizes its own.
type lastRowCase struct {
	name     string
	build    func() *Model
	prefix   []int
	suffixes [][]int
}

func lastRowCases() []lastRowCase {
	small := func(share bool) Config {
		return Config{
			Name: "last-row", VocabSize: 120, MaxSeqLen: 32, DModel: 32,
			NumHeads: 4, NumLayers: 3, FFNDim: 64, Causal: true, ShareLayers: share, NumClasses: 2,
		}
	}
	// ragged returns n suffixes of up to room tokens, the first of length
	// 1 and the last exactly room long: the small cases pass the room the
	// prefix leaves, so that suffix ends at MaxSeqLen.
	ragged := func(n, room int, seed uint64) [][]int {
		seqs := batchTestSeqs(n, 120, room, seed)
		seqs[0] = seqs[0][:1]
		last := make([]int, room)
		for i := range last {
			last[i] = (5*i + 1) % 120
		}
		seqs[n-1] = last
		return seqs
	}
	prefix := make([]int, 12)
	for i := range prefix {
		prefix[i] = (11*i + 2) % 120
	}
	// The served shape: mistral's layers over a 230-token few-shot prefix,
	// enough rows that the projections fan out over the cores.
	servedPrefix := make([]int, 230)
	for i := range servedPrefix {
		servedPrefix[i] = (7*i + 3) % 120
	}
	var cases []lastRowCase
	for _, share := range []bool{false, true} {
		name := "plain"
		if share {
			name = "shared"
		}
		build := func() *Model { return New(small(share), tensor.NewRNG(47)) }
		cases = append(cases,
			lastRowCase{name + "/nil-cache", build, nil, ragged(6, 32, 48)},
			lastRowCase{name + "/cached", build, prefix, ragged(6, 32-len(prefix), 49)})
	}
	lora := func() *Model {
		m := New(small(false), tensor.NewRNG(45))
		m.ApplyLoRA(4, 8, 0, tensor.NewRNG(46))
		return m
	}
	served := func() *Model { return New(mistralConfig(120), tensor.NewRNG(43)) }
	return append(cases,
		lastRowCase{"lora/cached", lora, prefix, ragged(5, 32-len(prefix), 50)},
		lastRowCase{"served/cached", served, servedPrefix, ragged(8, 29, 44)})
}

// TestLastRowForwardMatchesAllRows pins the served causal forwards, which
// read only each sequence's last position, to a forward that computes every
// row and gathers the last ones afterwards, bit for bit: next-token logits,
// the constrained choice's probabilities and the decoder's pooled features,
// in fp32 and int8, over a cached prefix and without one.
func TestLastRowForwardMatchesAllRows(t *testing.T) {
	choices := []int{10, 20, 30}
	for _, c := range lastRowCases() {
		for _, precision := range []string{"fp32", "int8"} {
			t.Run(fmt.Sprintf("%s/%s", c.name, precision), func(t *testing.T) {
				m := c.build()
				if precision == "int8" {
					m.QuantizeInt8(0)
				}
				var cache *KVCache
				if c.prefix != nil {
					cache = m.InferKVCache(c.prefix)
				}
				want := m.LMHead.Forward(allRowsLast(m, cache, c.suffixes), nil, nil)
				got := m.nextTokenLogits(cache, c.suffixes, nil, nil)
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("next-token logits differ from the all-rows forward's last rows (max |Δ| %g)", maxAbsDiff(got.Data, want.Data))
				}
				wantBest, wantProbs := chooseFromLogits(want, len(c.suffixes), choices)
				best, probs := m.ScoreChoiceBatchWithCacheWS(cache, c.suffixes, choices, tensor.NewWorkspace())
				for i := range best {
					if best[i] != wantBest[i] || !sameBits(probs[i], wantProbs[i]) {
						t.Fatalf("sequence %d: choice (%d, %v), all-rows reference (%d, %v)", i, best[i], probs[i], wantBest[i], wantProbs[i])
					}
				}
				if cache != nil {
					return
				}
				pooled := m.PooledBatchWS(c.suffixes, nil)
				if wantPooled := allRowsLast(m, nil, c.suffixes); !sameBits(pooled.Data, wantPooled.Data) {
					t.Fatalf("pooled features differ from the all-rows forward's last rows (max |Δ| %g)", maxAbsDiff(pooled.Data, wantPooled.Data))
				}
			})
		}
	}
}
