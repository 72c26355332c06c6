package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/tokenizer"
)

// artifactBytes assembles a syntactically well-formed artifact frame —
// magic, version, length-prefixed sections, CRC trailer — so the fuzzer's
// mutation effort goes into the section payloads instead of rediscovering
// the checksum.
func artifactBytes(sections ...[]byte) []byte {
	var buf bytes.Buffer
	h := crc32.NewIEEE()
	mw := io.MultiWriter(&buf, h)
	binary.Write(mw, binary.LittleEndian, artifactMagic)
	binary.Write(mw, binary.LittleEndian, artifactVersion)
	for _, s := range sections {
		binary.Write(mw, binary.LittleEndian, uint32(len(s)))
		mw.Write(s)
	}
	binary.Write(&buf, binary.LittleEndian, h.Sum32())
	return buf.Bytes()
}

// FuzzLoadDetector drives the artifact reader with corrupt, truncated, and
// near-valid inputs. The invariant is simple: whatever the bytes, the loader
// returns an error or a detector — never a panic, and never an unbounded
// allocation driven by attacker-controlled dimensions.
func FuzzLoadDetector(f *testing.F) {
	var tokBuf bytes.Buffer
	tok := tokenizer.Build([]string{"alpha beta gamma", "delta 42 epsilon"})
	if err := tok.Save(&tokBuf); err != nil {
		f.Fatal(err)
	}
	cfg := []byte(fmt.Sprintf(`{"VocabSize":%d,"MaxSeqLen":16,"DModel":8,"NumHeads":2,"NumLayers":1,"FFNDim":16,"NumClasses":2}`, tok.VocabSize()))

	f.Add([]byte{})
	f.Add([]byte("not an artifact"))
	f.Add(artifactBytes())
	// Frame intact, payloads empty: dies at the approach check.
	f.Add(artifactBytes(nil, nil, nil, nil, nil, nil))
	// Everything valid up to the weights, which are empty: exercises the
	// deepest error path (model built, weight load fails).
	f.Add(artifactBytes([]byte(SFT), []byte(PrecisionFP32), cfg, tokBuf.Bytes(), []byte("{}"), nil))
	// Same artifact with a flipped CRC byte: must be rejected as corrupt.
	valid := artifactBytes([]byte(SFT), []byte(PrecisionFP32), cfg, tokBuf.Bytes(), []byte("{}"), nil)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	// Hostile config: huge-but-positive dimensions with a valid frame.
	f.Add(artifactBytes([]byte(ICL), []byte(PrecisionFP32),
		[]byte(`{"VocabSize":1073741824,"MaxSeqLen":1073741824,"DModel":1073741824,"NumHeads":1,"NumLayers":1,"FFNDim":1}`),
		tokBuf.Bytes(), []byte("{}"), nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		det, _, err := loadDetector(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the loader accepts must survive a save round-trip.
		var out bytes.Buffer
		if err := saveDetector(&out, det, nil); err != nil {
			t.Fatalf("loaded detector cannot be re-saved: %v", err)
		}
	})
}
