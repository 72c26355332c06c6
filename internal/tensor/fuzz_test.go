package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzKernelsMatchReference lets the fuzzer pick the shape, the window
// offsets, assign versus accumulate, aT, the row range and the input seed of
// one call of each microkernel, and holds the Go loops and (where the CPU has
// it) the AVX routines to the per-element reference: equal Float32bits, NaN
// where the reference is NaN, guard bands and inputs untouched.
func FuzzKernelsMatchReference(f *testing.F) {
	requireBitExactArch(f)
	// rows, k, w, lo, hi, doff, aoff, boff, flags (aT|acc<<1|atEnd<<2|salted<<3), seed
	f.Add(uint8(1), uint8(4), uint8(8), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(5), uint8(7), uint8(0), uint8(1), uint8(1), uint8(3), uint8(5), uint8(2), uint64(2))
	f.Add(uint8(33), uint8(9), uint8(25), uint8(0), uint8(33), uint8(1), uint8(1), uint8(1), uint8(5), uint64(3))
	f.Add(uint8(35), uint8(8), uint8(13), uint8(2), uint8(34), uint8(3), uint8(1), uint8(7), uint8(15), uint64(4))
	f.Add(uint8(0), uint8(4), uint8(8), uint8(0), uint8(0), uint8(1), uint8(1), uint8(1), uint8(4), uint64(5))
	f.Add(uint8(2), uint8(0), uint8(9), uint8(0), uint8(2), uint8(1), uint8(1), uint8(1), uint8(10), uint64(6))
	f.Add(uint8(3), uint8(17), uint8(0), uint8(0), uint8(3), uint8(1), uint8(1), uint8(1), uint8(8), uint64(7))
	f.Add(uint8(27), uint8(12), uint8(27), uint8(0), uint8(27), uint8(12), uint8(12), uint8(12), uint8(0), uint64(8))
	f.Fuzz(func(t *testing.T, rows, k, w, lo, hi, doff, aoff, boff, flags uint8, seed uint64) {
		c := kernelCase{rows: int(rows % 72), k: int(k % 40), w: int(w % 72),
			doff: int(doff % 16), aoff: int(aoff % 16), boff: int(boff % 16),
			aT: flags&1 != 0, acc: flags&2 != 0, atEnd: flags&4 != 0, salted: flags&8 != 0, seed: seed}
		c.lo = int(lo) % (c.rows + 1)
		c.hi = c.lo + int(hi)%(c.rows-c.lo+1)
		c.check(t)
	})
}

// FuzzElementwiseMatchReference is the same for the elementwise kernels: the
// fuzzer picks the row count and width, the softmax scale as raw bits, the
// causal mask and its cached-key count, and raw uint32 inputs (four bytes
// each, the remainder seeded), and GELU, the softmax passes and the whole
// fused softmax must match their references on both paths, guard bands
// included.
func FuzzElementwiseMatchReference(f *testing.F) {
	requireBitExactArch(f)
	// rows, cols, past, scale bits, flags (causal|atEnd<<1|special<<2), seed, raw inputs
	f.Add(uint8(1), uint16(27), uint16(0), uint32(0x3f800000), uint8(0), uint64(1), []byte{})
	f.Add(uint8(27), uint16(27), uint16(0), uint32(0x3e93cd3a), uint8(1), uint64(2), []byte{0, 0, 0x80, 0x7f})
	f.Add(uint8(32), uint16(352), uint16(320), uint32(0x3e5105ec), uint8(7), uint64(3), []byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff})
	f.Add(uint8(5), uint16(9), uint16(2), uint32(0xbf800000), uint8(5), uint64(4), []byte{0x52, 0xac, 0xae, 0xc2, 1, 0, 0, 0})
	f.Add(uint8(3), uint16(0), uint16(0), uint32(0x7fc00000), uint8(2), uint64(5), []byte{})
	f.Add(uint8(0), uint16(8), uint16(1), uint32(0x7f800000), uint8(3), uint64(6), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, rows uint8, cols, past uint16, scale uint32, flags uint8, seed uint64, raw []byte) {
		c := elementwiseCase{rows: int(rows % 40), cols: int(cols % 400), past: int(past % 400), scale: math.Float32frombits(scale),
			causal: flags&1 != 0, atEnd: flags&2 != 0, special: flags&4 != 0, seed: seed}
		for ; len(raw) >= 4 && len(c.raw) < 64; raw = raw[4:] {
			c.raw = append(c.raw, binary.LittleEndian.Uint32(raw))
		}
		c.check(t)
	})
}
