package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// QuantizedTensor stores a matrix in block-wise 4-bit affine quantization:
// each block of BlockSize consecutive values shares one float32 scale and one
// float32 zero-point, and values are stored two-per-byte. This mirrors the
// BitsAndBytes NF4/linear-4bit storage used by the paper for ICL models,
// giving the same ~8× weight-memory reduction code path.
type QuantizedTensor struct {
	Rows, Cols int
	BlockSize  int
	Packed     []byte    // two 4-bit codes per byte, row-major element order
	Scales     []float32 // one per block
	Zeros      []float32 // one per block
}

// DefaultQuantBlock is the block size used when quantizing linear layers.
const DefaultQuantBlock = 64

// quantize4Bit converts m to 4-bit block-quantized form. Each block's range
// [min,max] is mapped linearly onto the 16 available codes.
func quantize4Bit(m *tensor.Matrix, blockSize int) *QuantizedTensor {
	if blockSize <= 0 {
		panic("nn: non-positive quantization block size")
	}
	n := len(m.Data)
	q := &QuantizedTensor{
		Rows: m.Rows, Cols: m.Cols, BlockSize: blockSize,
		Packed: make([]byte, (n+1)/2),
	}
	nBlocks := (n + blockSize - 1) / blockSize
	q.Scales = make([]float32, nBlocks)
	q.Zeros = make([]float32, nBlocks)
	for b := 0; b < nBlocks; b++ {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		minv, maxv := m.Data[lo], m.Data[lo]
		for _, v := range m.Data[lo:hi] {
			if v < minv {
				minv = v
			}
			if v > maxv {
				maxv = v
			}
		}
		scale := (maxv - minv) / 15
		if scale == 0 {
			scale = 1 // all-equal block; codes become 0 and dequantize to minv
		}
		q.Scales[b] = scale
		q.Zeros[b] = minv
		for i := lo; i < hi; i++ {
			code := int((m.Data[i]-minv)/scale + 0.5)
			if code < 0 {
				code = 0
			}
			if code > 15 {
				code = 15
			}
			if i%2 == 0 {
				q.Packed[i/2] |= byte(code)
			} else {
				q.Packed[i/2] |= byte(code) << 4
			}
		}
	}
	return q
}

// Dequantize reconstructs a float32 matrix from q.
func (q *QuantizedTensor) Dequantize() *tensor.Matrix {
	out := tensor.New(q.Rows, q.Cols)
	n := len(out.Data)
	for i := 0; i < n; i++ {
		var code byte
		if i%2 == 0 {
			code = q.Packed[i/2] & 0x0f
		} else {
			code = q.Packed[i/2] >> 4
		}
		b := i / q.BlockSize
		out.Data[i] = q.Zeros[b] + float32(code)*q.Scales[b]
	}
	return out
}

// MemoryBytes reports the storage footprint of the quantized form.
func (q *QuantizedTensor) MemoryBytes() int {
	return len(q.Packed) + 4*len(q.Scales) + 4*len(q.Zeros)
}

// Float32Bytes reports the storage footprint of the unquantized form.
func (q *QuantizedTensor) Float32Bytes() int { return 4 * q.Rows * q.Cols }

// QuantizeLinear replaces a Linear layer's weights with their 4-bit
// dequantized reconstruction in place (simulating inference through the
// quantized weights, as BitsAndBytes does by dequantizing per-matmul) and
// returns the quantized storage and the reconstruction RMS error. The layer's
// parameters are frozen afterwards: 4-bit base weights are not trainable,
// which is why the paper pairs quantization with LoRA.
func QuantizeLinear(l *Linear, blockSize int) (*QuantizedTensor, float64) {
	q := quantize4Bit(l.Weight.W, blockSize)
	deq := q.Dequantize()
	var sq float64
	for i, v := range l.Weight.W.Data {
		d := float64(v - deq.Data[i])
		sq += d * d
	}
	rms := 0.0
	if n := len(l.Weight.W.Data); n > 0 {
		rms = sq / float64(n)
	}
	l.Weight.W = deq
	FreezeAll(l.Params(), true)
	return q, rms
}

// String summarizes the quantized tensor.
func (q *QuantizedTensor) String() string {
	return fmt.Sprintf("QuantizedTensor(%dx%d, 4-bit, block=%d, %dB vs %dB fp32)",
		q.Rows, q.Cols, q.BlockSize, q.MemoryBytes(), q.Float32Bytes())
}
