package transformer

import (
	"repro/internal/tensor"
)

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
// A cache is read-only after construction, and ScoreChoiceBatchWithCacheWS,
// which consumes it, runs on the read-only workspace-backed forward, so one
// cache can serve concurrent queries from many goroutines.
type KVCache struct {
	Layers []LayerKV
	// Len is the prefix length in tokens.
	Len int
}

// InferKVCache captures each attention layer's keys and values over the
// prefix on the read-only inference path, so a cache can be built while other
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
	h := m.embedBatch([][]int{prefix}, offsets, 0, ws)
	cache := &KVCache{Len: len(prefix)}
	for _, b := range m.Blocks {
		var kv LayerKV
		h, kv = b.inferBatch(h, offsets, LayerKV{}, ws, true)
		cache.Layers = append(cache.Layers, kv)
	}
	return cache
}
