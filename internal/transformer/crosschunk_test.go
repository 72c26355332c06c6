package transformer

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// monitorChunk returns chunk k of a stream of monitor-shaped chunks of n
// lines: monitorSuffixes' layout with the first three values drawn from
// small sets that drift with k, so heads recur across chunks, and the later
// values moving every fourth chunk, so whole lines recur too. Each chunk
// ends with an exact duplicate of one of its lines and a strict prefix of
// another, and its first line carries k itself, so no two chunks are equal.
func monitorChunk(k, n int) [][]int {
	lines := monitorSuffixes(n - 2)
	for s, ids := range lines {
		ids[2] = 10 + (s+k)%5
		ids[5] = 10 + (s/4+k/3)%3
		ids[8] = 10 + (s/8+k/5)%2
		for f := 3; f < 9; f++ {
			ids[3*f+2] = 20 + (5*s+11*(f-3)+3*(k/4))%64
		}
	}
	lines[0][3*8+2] = 20 + k%64
	dup := append([]int(nil), lines[k%len(lines)]...)
	prefix := append([]int(nil), lines[(k+3)%len(lines)][:1+k%20]...)
	return append(lines, dup, prefix)
}

// crossChunkCase is one model the pin streams chunks through: the chunks
// continue prefix. build returns a fresh model, so each precision quantizes
// its own.
type crossChunkCase struct {
	name   string
	build  func() *Model
	prefix []int
}

func crossChunkCases() []crossChunkCase {
	prefix := make([]int, 12)
	for i := range prefix {
		prefix[i] = (11*i + 2) % 120
	}
	lora := func() *Model {
		m := New(Config{
			Name: "cross-chunk", VocabSize: 120, MaxSeqLen: 48, DModel: 32,
			NumHeads: 4, NumLayers: 3, FFNDim: 64, Causal: true, NumClasses: 2,
		}, tensor.NewRNG(71))
		m.ApplyLoRA(4, 8, 0, tensor.NewRNG(72))
		return m
	}
	servedPrefix := make([]int, 230)
	for i := range servedPrefix {
		servedPrefix[i] = (7*i + 3) % 120
	}
	served := func() *Model { return New(mistralConfig(120), tensor.NewRNG(73)) }
	return []crossChunkCase{{"lora", lora, prefix}, {"served", served, servedPrefix}}
}

// crossChunkRef is a sequence's answer when it runs alone on a fresh cache.
type crossChunkRef struct {
	logits []float32
	best   int
	probs  []float32
}

// crossChunkRefs runs every distinct sequence of chunks alone on fresh, a
// cache that serves nothing but batches of one, and returns their answers
// keyed by crossChunkKey.
func crossChunkRefs(m *Model, fresh *KVCache, chunks [][][]int, choices []int) map[string]crossChunkRef {
	refs := map[string]crossChunkRef{}
	ws := tensor.NewWorkspace()
	for _, chunk := range chunks {
		for _, ids := range chunk {
			key := crossChunkKey(ids)
			if _, ok := refs[key]; ok {
				continue
			}
			ws.Reset()
			logits := m.nextTokenLogits(fresh, [][]int{ids}, ws, nil)
			best, probs := chooseFromLogits(logits, 1, choices)
			refs[key] = crossChunkRef{logits.Data, best[0], probs[0]}
		}
	}
	return refs
}

func crossChunkKey(ids []int) string { return fmt.Sprint(ids) }

// checkCrossChunk runs chunk through cache, as the monitor does (next-token
// logits and constrained choice on a held workspace), and compares every
// sequence's bits with its reference; it returns the first difference.
func checkCrossChunk(m *Model, cache *KVCache, chunk [][]int, choices []int, refs map[string]crossChunkRef, ws *tensor.Workspace) error {
	ws.Reset()
	logits := m.nextTokenLogits(cache, chunk, ws, nil)
	ws.Reset()
	best, probs := m.ScoreChoiceBatchWithCacheWS(cache, chunk, choices, ws)
	for s, ids := range chunk {
		want := refs[crossChunkKey(ids)]
		if got := logits.Row(s); !sameBits(got, want.logits) {
			return fmt.Errorf("sequence %d (%d tokens): next-token logits differ from the sequence run alone on a fresh cache (max |Δ| %g)", s, len(ids), maxAbsDiff(got, want.logits))
		}
		if best[s] != want.best || !sameBits(probs[s], want.probs) {
			return fmt.Errorf("sequence %d (%d tokens): choice (%d, %v), alone on a fresh cache (%d, %v)", s, len(ids), best[s], probs[s], want.best, want.probs)
		}
	}
	return nil
}

// streamCache is the cache a stream of chunks runs through: its suffix tree
// holds 40 positions, so the stream fills it, evicts and hits again.
func streamCache(m *Model, prefix []int) *KVCache {
	cache := m.InferKVCache(prefix)
	cache.tree = newSuffixTree(len(m.Blocks), m.Config.DModel, 40*4*2*len(m.Blocks)*m.Config.DModel)
	return cache
}

// checkTreeTurned fails t unless cache's suffix tree lent rows after its
// first eviction, read at lentAtEviction (−1: it never evicted).
func checkTreeTurned(t *testing.T, cache *KVCache, lentAtEviction int) {
	t.Helper()
	if st := cache.tree; lentAtEviction < 0 || st.lent <= lentAtEviction {
		t.Fatalf("the suffix tree lent %d rows, %d before its first eviction (evicted %d): the stream never hit an evicted-into tree", st.lent, lentAtEviction, st.evicted)
	}
}

// crossChunkStream is the pin's stream: 48 distinct chunks of 12 lines.
func crossChunkStream() [][][]int {
	chunks := make([][][]int, 48)
	for k := range chunks {
		chunks[k] = monitorChunk(k, 12)
	}
	return chunks
}

// TestCrossChunkHeadsMatchFresh streams monitor-shaped chunks whose heads
// recur from chunk to chunk through one KVCache and pins every sequence to
// itself run alone on a freshly built cache, bit for bit: next-token logits
// and the constrained choice's probabilities, in fp32 and int8, on a LoRA
// model and the served mistral shape.
func TestCrossChunkHeadsMatchFresh(t *testing.T) {
	choices := []int{10, 20, 30}
	chunks := crossChunkStream()
	for _, c := range crossChunkCases() {
		for _, precision := range []string{"fp32", "int8"} {
			t.Run(c.name+"/"+precision, func(t *testing.T) {
				if raceEnabled && c.name == "served" {
					t.Skip("serial; the race detector slows the served shape several-fold, and the concurrent variant runs under it")
				}
				m := c.build()
				if precision == "int8" {
					m.QuantizeInt8(0)
				}
				fresh := m.InferKVCache(c.prefix)
				refs := crossChunkRefs(m, fresh, chunks, choices)
				if fresh.tree.used != 0 {
					t.Fatalf("the reference cache's suffix tree took %d slots serving batches of one", fresh.tree.used)
				}
				cache := streamCache(m, c.prefix)
				ws := tensor.NewWorkspace()
				lentAtEviction := -1
				for k, chunk := range chunks {
					if err := checkCrossChunk(m, cache, chunk, choices, refs, ws); err != nil {
						t.Fatalf("chunk %d: %v", k, err)
					}
					if lentAtEviction < 0 && cache.tree.evicted > 0 {
						lentAtEviction = cache.tree.lent
					}
				}
				checkTreeTurned(t, cache, lentAtEviction)
			})
		}
	}
}

// TestCrossChunkHeadsMatchFreshConcurrent is the pin with 8 goroutines
// streaming the chunks through one cache at once, each in its own order, on
// the LoRA model: what one goroutine computes, another may read.
func TestCrossChunkHeadsMatchFreshConcurrent(t *testing.T) {
	choices := []int{10, 20, 30}
	chunks := crossChunkStream()
	c := crossChunkCases()[0]
	for _, precision := range []string{"fp32", "int8"} {
		t.Run(precision, func(t *testing.T) {
			m := c.build()
			if precision == "int8" {
				m.QuantizeInt8(0)
			}
			refs := crossChunkRefs(m, m.InferKVCache(c.prefix), chunks, choices)
			cache := streamCache(m, c.prefix)
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ws := tensor.GetWorkspace()
					defer tensor.PutWorkspace(ws)
					// Goroutine g visits chunk (g + i·step) mod 48 at step i:
					// a stride coprime to 48, so each sees every chunk once.
					step := []int{1, 5, 7, 11, 13, 17, 19, 23}[g]
					for i := range chunks {
						k := (g + i*step) % len(chunks)
						if err := checkCrossChunk(m, cache, chunks[k], choices, refs, ws); err != nil {
							errs <- fmt.Errorf("goroutine %d, chunk %d: %w", g, k, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err, ok := <-errs; ok {
				t.Fatal(err)
			}
			if cache.tree.evicted == 0 || cache.tree.lent == 0 {
				t.Fatalf("the suffix tree lent %d rows and evicted %d nodes: the goroutines never shared it", cache.tree.lent, cache.tree.evicted)
			}
		})
	}
}
