package transformer

import (
	"testing"

	"repro/internal/tensor"
)

// fuzzRecordTail caps one record's own tokens (see decodeFuzzStream).
const fuzzRecordTail = 40

// decodeFuzzStream turns fuzz bytes into chunks of token sequences that
// continue a room-token-or-shorter suffix. The first byte sets the chunk
// size (1–12); each sequence after it is a record: a reference byte
// (picking an earlier sequence, or none), a depth byte (how many of that
// sequence's leading tokens it starts with), a tail-length byte, and the
// tail's tokens. So most inputs share heads of many depths, within a chunk
// and across chunks, the way a streaming monitor's log lines do.
func decodeFuzzStream(data []byte, room, vocab int) [][][]int {
	if len(data) == 0 {
		return nil
	}
	size := 1 + int(data[0])%12
	data = data[1:]
	var seqs [][]int
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for len(data) > 0 {
		ref, depth, tail := next(), next(), next()%(fuzzRecordTail+1)
		var s []int
		if ref %= len(seqs) + 1; ref < len(seqs) {
			head := seqs[ref]
			s = append(s, head[:depth%(len(head)+1)]...)
		}
		for i := 0; i < tail; i++ {
			s = append(s, next()%vocab)
		}
		if len(s) == 0 {
			s = append(s, 0)
		}
		seqs = append(seqs, s[:min(len(s), room)])
	}
	var chunks [][][]int
	for lo := 0; lo < len(seqs); lo += size {
		chunks = append(chunks, seqs[lo:min(lo+size, len(seqs))])
	}
	return chunks
}

// encodeFuzzStream is decodeFuzzStream's inverse for chunks of one size
// whose sequences are all spelled out (no shared-head records) and whose
// tokens are below 256 and at most fuzzRecordTail per sequence: how the
// seed corpus carries hand-made streams.
func encodeFuzzStream(chunks [][][]int) []byte {
	data := []byte{byte(len(chunks[0]) - 1)}
	n := 0
	for _, chunk := range chunks {
		for _, s := range chunk {
			// A reference byte equal to the count so far decodes as none.
			data = append(data, byte(n), 0, byte(len(s)))
			for _, tok := range s {
				data = append(data, byte(tok))
			}
			n++
		}
	}
	return data
}

// FuzzSharedForward is the differential fuzz target of the forwards that
// skip work: in-batch prefix sharing, last-row decoding and the cross-chunk
// suffix tree. It streams random chunks — sequences sharing heads of random
// depth, exact duplicates and strict prefixes among them — through one
// KVCache whose tree holds as little as one node, visiting every chunk twice
// in a random order, and compares each sequence's next-token logits and
// constrained-choice probabilities with the same sequence run alone on a
// cache that serves nothing but batches of one, bit for bit, in fp32 or
// int8. The seed corpus holds the cross-chunk pin's hand stream at the
// 40-node budget and at one node, which fail under a gather that reads
// values for keys, a CLOCK that evicts pinned nodes and a lookup that lends
// a sequence its last row.
func FuzzSharedForward(f *testing.F) {
	hand := crossChunkStream()[:4]
	f.Add(encodeFuzzStream(hand), uint16(40), uint64(1), false)
	f.Add(encodeFuzzStream(hand), uint16(40), uint64(2), true)
	f.Add(encodeFuzzStream(hand[:3]), uint16(1), uint64(3), false)
	f.Add([]byte{4, 9, 0, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
		0, 12, 3, 50, 51, 52, 1, 255, 0, 1, 7, 4, 60, 61, 62, 63, 0, 20, 0, 2, 5, 2, 70, 71}, uint16(3), uint64(4), false)

	c := crossChunkCases()[0]
	models := map[bool]*Model{false: c.build(), true: c.build()}
	models[true].QuantizeInt8(0)
	choices := []int{10, 20, 30}
	f.Fuzz(func(t *testing.T, data []byte, nodes uint16, order uint64, q8 bool) {
		m := models[q8]
		chunks := decodeFuzzStream(data, m.Config.MaxSeqLen-len(c.prefix), m.Config.VocabSize)
		if len(chunks) == 0 || len(chunks) > 8 {
			t.Skip("no chunk, or more than the target runs quickly")
		}
		fresh := m.InferKVCache(c.prefix)
		refs := crossChunkRefs(m, fresh, chunks, choices)
		if fresh.tree.used != 0 {
			t.Fatalf("the reference cache's suffix tree took %d slots serving batches of one", fresh.tree.used)
		}
		cache := m.InferKVCache(c.prefix)
		cache.tree = newSuffixTree(len(m.Blocks), m.Config.DModel, (1+int(nodes)%256)*4*2*len(m.Blocks)*m.Config.DModel)
		rng := tensor.NewRNG(order)
		ws := tensor.NewWorkspace()
		for pass := 0; pass < 2; pass++ {
			for _, k := range rng.Perm(len(chunks)) {
				if err := checkCrossChunk(m, cache, chunks[k], choices, refs, ws); err != nil {
					t.Fatalf("pass %d, chunk %d of %d: %v", pass, k, len(chunks), err)
				}
			}
		}
	})
}
