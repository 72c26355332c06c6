package core

import (
	"encoding/binary"
	"strconv"
	"sync"

	"repro/internal/flowbench"
	"repro/internal/tokenizer"
)

// The token-keyed verdict memo.
//
// The tokenizer buckets every numeral into a quarter-decade magnitude token,
// so log lines whose strings differ often read the same to the model
// (docs/PERFORMANCE.md measures how often). The engine of an in-process
// detector, whose verdict is a function of its input's tokens
// (localDetector), keeps a bounded memo from a line's token sequence to the
// model's Result, in front of the model call and behind the cascade gate. It
// is Clipper's prediction cache (Crankshaw et al., NSDI 2017), keyed by what
// the model reads rather than by the raw bytes. A fleet front's model gets
// none: its answers carry its replicas' gate verdicts.
//
// It sits behind the gate because the gate is not a function of the key:
// logparse.ScanSentence is case-sensitive and rejects a value like "6.0,",
// where Tokenize lowercases and splits the comma off, so two lines with one
// key can take different gate routes. The memo holds model verdicts only,
// and a line the gate answers never reaches it.

// A memo key is a sentence's tokenizer.Tokenize tokens, each coded as one
// byte when memoDict holds it (the magnitude buckets, the feature names, "is":
// all of a Genome sentence) and as 0, its length as a uvarint and its bytes
// otherwise. The coding is a function of the token's string and decodes
// unambiguously, so two keys are equal exactly when the token sequences are,
// and a sentence's key is ~27 bytes rather than the ~190 of its joined
// tokens.
var memoDict = func() map[string]byte {
	words := []string{"[UNK]", "-", "is"}
	for b := 0; b < tokenizer.NumBuckets; b++ {
		words = append(words, "<num"+strconv.Itoa(b)+">")
	}
	words = append(words, flowbench.FeatureNames...)
	d := make(map[string]byte, len(words))
	for i, w := range words {
		d[w] = byte(1 + i)
	}
	return d
}()

// appendToken appends tok's code to dst.
func appendToken(dst []byte, tok string) []byte {
	if c, ok := memoDict[tok]; ok {
		return append(dst, c)
	}
	dst = binary.AppendUvarint(append(dst, 0), uint64(len(tok)))
	return append(dst, tok...)
}

// appendMemoKey appends s's memo key to dst.
func appendMemoKey(dst []byte, s string) []byte {
	for _, tok := range tokenizer.Tokenize(s) {
		dst = appendToken(dst, tok)
	}
	return dst
}

// memoCapacity is the number of token sequences one engine's memo holds,
// and memoMaxKey the longest key it keeps: a longer line is answered by the
// model every time it arrives in a new batch. Full of Genome keys (~27
// bytes) the memo holds about 0.5 MB, and at most about 1.4 MB whatever the
// keys (docs/PERFORMANCE.md, "a token-keyed verdict memo").
const (
	memoCapacity = 4096
	memoMaxKey   = 256
)

// verdictMemo is a fixed-capacity map from memo keys to the model's Result
// with CLOCK eviction, as the suffix tree's (transformer/suffixtree.go). The
// full key is stored and compared, so no line answers for another whose
// tokens differ. One mutex guards it, taken once for a batch's lookups and
// once for its inserts. It grows as it fills, so an engine that sees few
// distinct lines holds little.
type verdictMemo struct {
	mu    sync.Mutex
	index map[string]int // key → slot
	slots []memoSlot     // grows to memoCapacity, then is reused
	ref   []bool         // slot i read or written since the hand last passed
	hand  int            // CLOCK's
}

type memoSlot struct {
	key string
	res Result
}

func newVerdictMemo() *verdictMemo { return &verdictMemo{index: map[string]int{}} }

// lookup fills res[i] for every keys[i] the memo holds and returns the
// indices of those it does not.
func (m *verdictMemo) lookup(keys []string, res []Result) (miss []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, k := range keys {
		j, ok := m.index[k]
		if !ok {
			miss = append(miss, i)
			continue
		}
		res[i] = m.slots[j].res
		m.ref[j] = true
	}
	return miss
}

// insert records res[i] under keys[i] for every i in idx whose key is at
// most memoMaxKey bytes. A key another worker inserted meanwhile keeps its
// slot: both computed the same bits.
func (m *verdictMemo) insert(keys []string, res []Result, idx []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, i := range idx {
		if len(keys[i]) > memoMaxKey {
			continue
		}
		if _, ok := m.index[keys[i]]; ok {
			continue
		}
		j := len(m.slots)
		if j < memoCapacity {
			m.slots, m.ref = append(m.slots, memoSlot{}), append(m.ref, false)
		} else {
			for m.ref[m.hand] {
				m.ref[m.hand] = false
				m.hand = (m.hand + 1) % memoCapacity
			}
			j = m.hand
			m.hand = (m.hand + 1) % memoCapacity
			delete(m.index, m.slots[j].key)
		}
		m.slots[j], m.ref[j] = memoSlot{key: keys[i], res: res[i]}, true
		m.index[keys[i]] = j
	}
}

// entries is the number of token sequences the memo holds; 0 for nil.
func (m *verdictMemo) entries() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.slots)
}
