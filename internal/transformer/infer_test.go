package transformer

import (
	"testing"

	"repro/internal/tensor"
)

// cachedLogits runs one suffix through the cached-prefix forward.
func cachedLogits(m *Model, cache *KVCache, suffix []int) []float32 {
	return m.nextTokenLogits(cache, [][]int{suffix}, nil, nil).Row(0)
}

// TestKVCacheMatchesFullForward is the core equivalence property: logits
// from the cached path must match the training forward over the
// concatenation.
func TestKVCacheMatchesFullForward(t *testing.T) {
	cfg := smallConfig(true)
	cfg.MaxSeqLen = 32
	m := New(cfg, tensor.NewRNG(51))
	prefix := []int{1, 4, 2, 9, 7, 3}
	suffix := []int{5, 8, 11}
	full := refNextLogits(m, append(append([]int{}, prefix...), suffix...))
	cached := cachedLogits(m, m.InferKVCache(prefix), suffix)
	if d := maxAbsDiff(full, cached); d > 1e-4 {
		t.Fatalf("cached logits differ from the full forward by %g", d)
	}
}

func TestKVCacheReusableAcrossSuffixes(t *testing.T) {
	cfg := smallConfig(true)
	m := New(cfg, tensor.NewRNG(52))
	prefix := []int{2, 4, 6, 8}
	cache := m.InferKVCache(prefix)
	for _, suffix := range [][]int{{1}, {3, 5}, {7, 9, 11}} {
		full := refNextLogits(m, append(append([]int{}, prefix...), suffix...))
		if d := maxAbsDiff(full, cachedLogits(m, cache, suffix)); d > 1e-4 {
			t.Fatalf("suffix %v: logits differ by %g", suffix, d)
		}
	}
}

func TestScoreChoiceWithCacheMatches(t *testing.T) {
	cfg := smallConfig(true)
	m := New(cfg, tensor.NewRNG(53))
	prefix := []int{1, 2, 3}
	suffix := []int{4, 5}
	choices := []int{6, 7}
	wantBest, wantProbs := refChoice(m, append(append([]int{}, prefix...), suffix...), choices)
	gotBest, gotProbs := m.ScoreChoiceBatchWithCacheWS(m.InferKVCache(prefix), [][]int{suffix}, choices, nil)
	if gotBest[0] != wantBest {
		t.Fatalf("best = %d, want %d", gotBest[0], wantBest)
	}
	if d := maxAbsDiff(gotProbs[0], wantProbs); d > 1e-4 {
		t.Fatalf("probs mismatch: %v vs %v", gotProbs[0], wantProbs)
	}
}

func TestBuildKVCacheRejectsNonCausal(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(54))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.InferKVCache([]int{1, 2})
}

func TestBuildKVCacheRejectsOverflow(t *testing.T) {
	cfg := smallConfig(true)
	m := New(cfg, tensor.NewRNG(55))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.InferKVCache(make([]int, cfg.MaxSeqLen+1))
}

func TestCachePathRejectsTotalOverflow(t *testing.T) {
	cfg := smallConfig(true)
	m := New(cfg, tensor.NewRNG(56))
	cache := m.InferKVCache(make([]int, cfg.MaxSeqLen-1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ScoreChoiceBatchWithCacheWS(cache, [][]int{{1, 2, 3}}, []int{4, 5}, nil)
}

func TestKVCacheNotMutatedByQueries(t *testing.T) {
	cfg := smallConfig(true)
	m := New(cfg, tensor.NewRNG(57))
	cache := m.InferKVCache([]int{1, 2, 3, 4})
	before := cache.Layers[0].K.Clone()
	m.ScoreChoiceBatchWithCacheWS(cache, [][]int{{5, 6}}, []int{1, 2}, nil)
	if !cache.Layers[0].K.Equal(before) {
		t.Fatal("query mutated the shared cache")
	}
	if cache.Len != 4 {
		t.Fatalf("cache length changed to %d", cache.Len)
	}
}
