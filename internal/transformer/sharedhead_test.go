package transformer

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// sharedHeadBatch returns a batch whose sequences share leading runs the
// way a chunk of log-line suffixes does: heads of several depths (one
// borrowed partly through a sequence that borrows too), an exact duplicate, a
// strict prefix, a one-token strict prefix, a sequence room tokens long and
// one that shares nothing. The small cases pass the room the prefix leaves,
// so the longest sequence ends at MaxSeqLen. room must be at least 12.
func sharedHeadBatch(room, vocab int) [][]int {
	base := make([]int, room)
	for i := range base {
		base[i] = (5*i + 1) % vocab
	}
	// fork returns base's first n tokens followed by tail distinct ones.
	fork := func(n, tail, salt int) []int {
		s := append([]int(nil), base[:n]...)
		for i := 0; i < tail; i++ {
			s = append(s, (3*i+salt)%vocab)
		}
		return s
	}
	unshared := make([]int, room-3)
	for i := range unshared {
		unshared[i] = (7*i + 2) % vocab
	}
	head5 := fork(5, room-8, 61)
	deeper := append(append([]int(nil), head5[:9]...), 90, 91, 92)
	// Between head5 and deeper sits a shallower head, so a gather that
	// stopped at deeper's own parent would read another head's rows.
	return [][]int{
		unshared,
		base,
		head5,
		fork(1, 4, 77),
		deeper,                          // borrows 9: 5 from base through head5
		append([]int(nil), head5...),    // exact duplicate
		append([]int(nil), base[:7]...), // strict prefix
		{base[0]},                       // one-token strict prefix
		fork(room-1, 1, 33),
	}
}

// sharedHeadCases are the pin's models and batches: a ShareLayers model, a
// LoRA model and the served mistral shape, each with a cached prefix and
// without one. build returns a fresh model, so each precision quantizes its
// own.
func sharedHeadCases() []lastRowCase {
	small := func(share bool) Config {
		return Config{
			Name: "shared-head", VocabSize: 120, MaxSeqLen: 32, DModel: 32,
			NumHeads: 4, NumLayers: 3, FFNDim: 64, Causal: true, ShareLayers: share, NumClasses: 2,
		}
	}
	prefix := make([]int, 12)
	for i := range prefix {
		prefix[i] = (11*i + 2) % 120
	}
	shareLayers := func() *Model { return New(small(true), tensor.NewRNG(61)) }
	lora := func() *Model {
		m := New(small(false), tensor.NewRNG(62))
		m.ApplyLoRA(4, 8, 0, tensor.NewRNG(63))
		return m
	}
	served := func() *Model { return New(mistralConfig(120), tensor.NewRNG(64)) }
	servedPrefix := make([]int, 230)
	for i := range servedPrefix {
		servedPrefix[i] = (7*i + 3) % 120
	}
	var cases []lastRowCase
	for _, c := range []struct {
		name  string
		build func() *Model
	}{{"share-layers", shareLayers}, {"lora", lora}} {
		cases = append(cases,
			lastRowCase{c.name + "/nil-cache", c.build, nil, sharedHeadBatch(32, 120)},
			lastRowCase{c.name + "/cached", c.build, prefix, sharedHeadBatch(32-len(prefix), 120)})
	}
	return append(cases,
		lastRowCase{"served/nil-cache", served, nil, append(monitorSuffixes(12), sharedHeadBatch(40, 120)...)},
		lastRowCase{"served/cached", served, servedPrefix, append(monitorSuffixes(12), sharedHeadBatch(40, 120)...)})
}

// TestSharedHeadForwardMatchesUnshared pins a batch whose sequences share
// leading tokens to each sequence run alone, bit for bit: next-token
// logits, the constrained choice's probabilities and the decoder's pooled
// features, in fp32 and int8, over a cached prefix and without one. A batch
// of one shares nothing, so it is the reference.
func TestSharedHeadForwardMatchesUnshared(t *testing.T) {
	choices := []int{10, 20, 30}
	for _, c := range sharedHeadCases() {
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
				logits := m.nextTokenLogits(cache, c.suffixes, nil, nil)
				best, probs := m.ScoreChoiceBatchWithCacheWS(cache, c.suffixes, choices, tensor.NewWorkspace())
				var pooled *tensor.Matrix
				if cache == nil {
					pooled = m.PooledBatchWS(c.suffixes, nil)
				}
				for s, ids := range c.suffixes {
					alone := [][]int{ids}
					want := m.nextTokenLogits(cache, alone, nil, nil)
					if got := logits.Row(s); !sameBits(got, want.Data) {
						t.Fatalf("sequence %d: next-token logits differ from the sequence run alone (max |Δ| %g)", s, maxAbsDiff(got, want.Data))
					}
					wantBest, wantProbs := m.ScoreChoiceBatchWithCacheWS(cache, alone, choices, nil)
					if best[s] != wantBest[0] || !sameBits(probs[s], wantProbs[0]) {
						t.Fatalf("sequence %d: choice (%d, %v), run alone (%d, %v)", s, best[s], probs[s], wantBest[0], wantProbs[0])
					}
					if pooled == nil {
						continue
					}
					if wantPooled := m.PooledBatchWS(alone, nil); !sameBits(pooled.Row(s), wantPooled.Data) {
						t.Fatalf("sequence %d: pooled features differ from the sequence run alone (max |Δ| %g)", s, maxAbsDiff(pooled.Row(s), wantPooled.Data))
					}
				}
			})
		}
	}
}
