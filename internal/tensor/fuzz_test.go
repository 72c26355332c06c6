package tensor

import "testing"

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
