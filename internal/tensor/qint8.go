package tensor

import (
	"fmt"
	"math"
)

// Int8 quantized weights and the integer matmul kernel.
//
// QInt8Matrix stores a weight matrix W [In, Out] (the y = x·W orientation of
// every linear layer) in blockwise symmetric int8: along the reduction
// dimension In, each run of Block values of one output channel shares a
// float32 scale, and codes are round(w/scale) clamped to [-127, 127]. That is
// the llama.cpp/BitsAndBytes-style storage: 1 byte per weight plus one
// float32 per block, ~4× smaller than fp32. The codes are held output-channel
// major ([Out][In], channel j's run of In codes contiguous), which is both
// the serialized layout (Codes) and the one the kernel reads.
//
// MatMulQ8 computes y = x·W without ever dequantizing W to float: activations
// are quantized per row on the fly (dynamic symmetric int8, one scale per
// row), the dot products run in integer arithmetic, and only the per-block
// sums are scaled back to float32 — the W8A8 dynamic scheme. For output
// channel j of row i, with s_b the integer Σ x·w over block b:
//
//	f = +0; f += float32(s_b) · scale[j][b] for b ascending; y = f · sx[i]
//
// each product and sum rounded on its own. The integer sums are exact, so
// how they are computed — which products are added first, how many lanes —
// moves no bit; only that float epilogue fixes the order.
//
// With useLanes the integer sums come from dotQ8Block8 (kernel_amd64.s), eight
// output channels and 32 codes at a time. VPMADDUBSW multiplies unsigned by
// signed bytes and adds adjacent products into saturating int16 lanes, so the
// routine feeds it |x| (VPABSB) as the unsigned operand and w with x's sign
// moved onto it (VPSIGNB) as the signed one: |x|·(sign(x)·w) = x·w, and since
// no code is -128 every pair sum is at most 2·127·127 = 32 258 in magnitude,
// inside int16 (TestMatMulQ8SaturationEdge sits on that edge). VPMADDWD by
// ones widens the pairs to int32 and VPADDD accumulates. The routine takes
// eight channels at a time over blocks whose length is a multiple of 16 —
// all of every served shape; the plain Go integer loop over the same codes
// takes the Out mod 8 channels left, any other block, and everything where
// the CPU lacks AVX2. Both give the same sums, so rows computed on either
// path, and any row partitioning across goroutines, give the same bits.

// qInt8Block is the default scale-block length along the reduction dimension.
// 64 keeps the worst-case quantization range per scale tight (the accuracy
// knob) while spreading each block's epilogue (fold the integer sums, convert,
// scale, add) over 64 multiply-adds per channel.
const qInt8Block = 64

// QInt8Matrix is a weight matrix held in blockwise symmetric int8 form.
// Construct with QuantizeInt8 (from fp32 weights) or NewQInt8FromCodes (from
// serialized codes); treat as read-only afterwards — one matrix can serve
// concurrent MatMulQ8 calls.
type QInt8Matrix struct {
	// In, Out are the logical fp32 shape [In, Out] of the weight matrix.
	In, Out int
	// Block is the scale-block length along In.
	Block int
	// Scales holds the per-(channel, block) quantization scales, indexed
	// [j·nBlocks + b].
	Scales []float32
	// codes holds the int8 codes output-channel major: channel j's codes
	// are codes[j·In:(j+1)·In]. No code is -128.
	codes []int8
}

// Blocks returns the number of scale blocks along the reduction dimension.
func (q *QInt8Matrix) Blocks() int { return (q.In + q.Block - 1) / q.Block }

// MemoryBytes reports the resident footprint: the kernel computes from the
// serialized form itself, so this is CodesBytes.
func (q *QInt8Matrix) MemoryBytes() int { return q.CodesBytes() }

// CodesBytes reports the serialized footprint: one byte per weight plus the
// per-block scales.
func (q *QInt8Matrix) CodesBytes() int { return len(q.codes) + 4*len(q.Scales) }

// Float32Bytes reports the footprint of the unquantized form.
func (q *QInt8Matrix) Float32Bytes() int { return 4 * q.In * q.Out }

// String summarizes the quantized matrix.
func (q *QInt8Matrix) String() string {
	return fmt.Sprintf("QInt8Matrix(%dx%d, block=%d, %dB vs %dB fp32)",
		q.In, q.Out, q.Block, q.MemoryBytes(), q.Float32Bytes())
}

// roundToInt32 rounds half away from zero, matching the reference rounding of
// both weight and activation quantization. Branchless: int32() truncates
// toward zero, so adding a sign-matched 0.5 implements half-away without the
// data-dependent branch that mispredicts on every random-signed activation.
func roundToInt32(f float32) int32 {
	half := math.Float32frombits(0x3F000000 | math.Float32bits(f)&0x80000000)
	return int32(f + half)
}

// QuantizeInt8 converts w [In, Out] to blockwise symmetric int8 form with the
// given scale-block length (≤ 0 selects qInt8Block). An all-zero block gets
// scale 0 and all-zero codes, which dequantizes and computes exactly to zero.
func QuantizeInt8(w *Matrix, block int) *QInt8Matrix {
	if block <= 0 {
		block = qInt8Block
	}
	in, out := w.Rows, w.Cols
	nb := (in + block - 1) / block
	q := &QInt8Matrix{
		In: in, Out: out, Block: block,
		Scales: make([]float32, out*nb),
		codes:  make([]int8, out*in),
	}
	for j := 0; j < out; j++ {
		crow := q.codes[j*in : (j+1)*in]
		for b := 0; b < nb; b++ {
			lo, hi := b*block, min(b*block+block, in)
			var absmax float32
			for k := lo; k < hi; k++ {
				v := w.Data[k*out+j]
				if v < 0 {
					v = -v
				}
				if v > absmax {
					absmax = v
				}
			}
			var scale, inv float32
			if absmax > 0 {
				scale = absmax / 127
				inv = 127 / absmax
			}
			for k := lo; k < hi; k++ {
				c := roundToInt32(w.Data[k*out+j] * inv)
				if c > 127 {
					c = 127
				} else if c < -127 {
					c = -127
				}
				crow[k] = int8(c)
			}
			q.Scales[j*nb+b] = scale
		}
	}
	return q
}

// Codes returns a copy of the raw int8 codes in output-channel-major order
// ([Out][In]; channel j's codes are Codes()[j·In:(j+1)·In]) — the
// serialization layout.
func (q *QInt8Matrix) Codes() []int8 { return append([]int8(nil), q.codes...) }

// NewQInt8FromCodes rebuilds a matrix from serialized codes
// (output-channel-major, as returned by Codes) and per-(channel, block)
// scales, copying both. Lengths must match the shape exactly.
func NewQInt8FromCodes(in, out, block int, codes []int8, scales []float32) (*QInt8Matrix, error) {
	if in <= 0 || out <= 0 || block <= 0 {
		return nil, fmt.Errorf("tensor: qint8 shape %dx%d block %d is invalid", in, out, block)
	}
	nb := (in + block - 1) / block
	if len(codes) != in*out {
		return nil, fmt.Errorf("tensor: qint8 has %d codes, shape %dx%d needs %d", len(codes), in, out, in*out)
	}
	if len(scales) != out*nb {
		return nil, fmt.Errorf("tensor: qint8 has %d scales, shape %dx%d block %d needs %d", len(scales), in, out, block, out*nb)
	}
	for i, c := range codes {
		if c == -128 {
			return nil, fmt.Errorf("tensor: qint8 code -128 at channel %d, row %d (corrupt stream?)", i/in, i%in)
		}
	}
	return &QInt8Matrix{
		In: in, Out: out, Block: block,
		Scales: append([]float32(nil), scales...),
		codes:  append([]int8(nil), codes...),
	}, nil
}

// Dequantize reconstructs the fp32 weight matrix [In, Out] from the codes and
// scales (the reference the parity tests compare against).
func (q *QInt8Matrix) Dequantize() *Matrix {
	w := New(q.In, q.Out)
	nb := q.Blocks()
	for j := 0; j < q.Out; j++ {
		for k, code := range q.codes[j*q.In : (j+1)*q.In] {
			w.Data[k*q.Out+j] = float32(code) * q.Scales[j*nb+k/q.Block]
		}
	}
	return w
}

// MatMulQ8 computes x·W for int8-quantized W into dst (allocated if nil),
// quantizing each activation row on the fly and accumulating in integers.
// Scratch (quantized activations and row scales) is drawn from ws; a nil
// workspace allocates. Row fan-out follows the same GOMAXPROCS schedule as
// the fp32 kernels, and integer accumulation makes the result independent of
// the partitioning.
func MatMulQ8(dst, x *Matrix, w *QInt8Matrix, ws *Workspace) *Matrix {
	if x.Cols != w.In {
		panic(fmt.Sprintf("tensor: matmulQ8 shape mismatch %dx%d × %dx%d", x.Rows, x.Cols, w.In, w.Out))
	}
	if dst == nil {
		dst = New(x.Rows, w.Out)
	} else if dst.Rows != x.Rows || dst.Cols != w.Out {
		panic(fmt.Sprintf("tensor: matmulQ8 dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, w.Out))
	}
	n := x.Rows
	if n == 0 {
		return dst
	}
	xq := ws.getInt8s(n * w.In)
	sx := ws.Get(1, n)
	if !parallelWorth(n, w.In*w.Out) {
		matMulQ8Rows(dst, x, w, xq, sx.Data, 0, n)
		return dst
	}
	//lint:ignore hotalloc one fan-out closure per matmul, amortized over the whole parallel row sweep
	parallelRows(n, w.In*w.Out, func(lo, hi int) {
		matMulQ8Rows(dst, x, w, xq, sx.Data, lo, hi)
	})
	return dst
}

// QuantizedRows is a batch of activation rows quantized once for reuse
// against several weight matrices that share In and Block — the attention
// layer quantizes its input a single time and runs the Q, K, and V
// projections from the same codes. Buffers are workspace-backed: a value is
// valid until its workspace's next Reset.
type QuantizedRows struct {
	Rows, In, Block int
	xq              []int8
	sx              []float32
}

// QuantizeRowsQ8 quantizes every row of x (dynamic symmetric, per-row scale)
// for weights of the given scale-block length (≤ 0 selects qInt8Block),
// drawing buffers from ws (nil allocates).
func QuantizeRowsQ8(x *Matrix, block int, ws *Workspace) QuantizedRows {
	if block <= 0 {
		block = qInt8Block
	}
	n, in := x.Rows, x.Cols
	qa := QuantizedRows{
		Rows: n, In: in, Block: block,
		xq: ws.getInt8s(n * in),
		sx: ws.Get(1, n).Data,
	}
	for i := 0; i < n; i++ {
		qa.sx[i] = quantizeRowQ8(x.Data[i*in:(i+1)*in], qa.xq[i*in:(i+1)*in])
	}
	return qa
}

// MatMulQ8Pre is MatMulQ8 over pre-quantized activations: qa must have been
// built with the same In and Block as w. Results are bitwise identical to
// MatMulQ8 on the original rows.
func MatMulQ8Pre(dst *Matrix, qa QuantizedRows, w *QInt8Matrix) *Matrix {
	if qa.In != w.In || qa.Block != w.Block {
		panic(fmt.Sprintf("tensor: matmulQ8 prequantized rows are %d-wide block %d, weights want %d-wide block %d",
			qa.In, qa.Block, w.In, w.Block))
	}
	if dst == nil {
		dst = New(qa.Rows, w.Out)
	} else if dst.Rows != qa.Rows || dst.Cols != w.Out {
		panic(fmt.Sprintf("tensor: matmulQ8 dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, qa.Rows, w.Out))
	}
	n := qa.Rows
	// Branch before constructing the parallel closure: a func literal
	// referenced by parallelRows is forced onto the heap, and the serial
	// fast path must stay allocation-free.
	if !parallelWorth(n, qa.In*w.Out) {
		matMulQ8PreRows(dst, qa, w, 0, n)
		return dst
	}
	parallelRows(n, qa.In*w.Out, func(lo, hi int) {
		matMulQ8PreRows(dst, qa, w, lo, hi)
	})
	return dst
}

func matMulQ8PreRows(dst *Matrix, qa QuantizedRows, w *QInt8Matrix, lo, hi int) {
	in := qa.In
	for i := lo; i < hi; i++ {
		matMulQ8Row(dst.Data[i*w.Out:(i+1)*w.Out], qa.xq[i*in:(i+1)*in], qa.sx[i], w)
	}
}

func matMulQ8Rows(dst, x *Matrix, w *QInt8Matrix, xq []int8, sx []float32, lo, hi int) {
	in := w.In
	for i := lo; i < hi; i++ {
		xrow := xq[i*in : (i+1)*in]
		sx[i] = quantizeRowQ8(x.Data[i*in:(i+1)*in], xrow)
		matMulQ8Row(dst.Data[i*w.Out:(i+1)*w.Out], xrow, sx[i], w)
	}
}

// quantizeRowQ8 performs dynamic symmetric per-row activation quantization:
// xrow is encoded into int8 codes in xq and the row's dequantization scale is
// returned. A code is the low byte of the rounded int32, so an element whose
// scaled value is NaN — a NaN input, or any input of a row whose absmax is
// +Inf — converts to MinInt32 on amd64 and codes as 0
// (TestMatMulQ8NonFiniteRows). With useLanes the first multiple of 8
// elements take both passes in absmaxLanes and quantizeLanes, the rest the
// Go loops; per element the two compute the same.
func quantizeRowQ8(xrow []float32, xq []int8) float32 {
	xq = xq[:len(xrow)]
	lanes := 0
	if useLanes() {
		lanes = len(xrow) &^ 7
	}
	var absmax float32
	if lanes > 0 {
		absmax = absmaxLanes(&xrow[:lanes][0], lanes)
	}
	for _, v := range xrow[lanes:] {
		// Branchless |v|: clear the sign bit rather than compare-and-negate.
		v = math.Float32frombits(math.Float32bits(v) &^ 0x80000000)
		if v > absmax {
			absmax = v
		}
	}
	var inv, scale float32
	if absmax > 0 {
		inv = 127 / absmax
		scale = absmax / 127
	}
	if lanes > 0 {
		quantizeLanes(&xq[:lanes][0], &xrow[:lanes][0], lanes, inv)
	}
	for k := lanes; k < len(xrow); k++ {
		xq[k] = int8(roundToInt32(xrow[k] * inv))
	}
	return scale
}

// matMulQ8Row computes one output row of x·W from a quantized activation row:
// the float epilogue of the header, accumulated in drow block by block, with
// each block's integer sums from dotQ8Block8 (with useLanes, eight channels at
// a time, for blocks whose length is a multiple of 16) or the Go loop.
func matMulQ8Row(drow []float32, xq []int8, sx float32, w *QInt8Matrix) {
	in, out, block := w.In, w.Out, w.Block
	nb := w.Blocks()
	clear(drow)
	// The routine gathers a block's eight scales at int32 byte offsets c·nb·4.
	lanes := useLanes() && nb <= math.MaxInt32/32
	for b := 0; b < nb; b++ {
		klo, khi := b*block, min(b*block+block, in)
		xb := xq[klo:khi]
		j := 0
		if g := out / 8; lanes && g > 0 && len(xb)%16 == 0 {
			// Cut every operand to the last element the routine touches.
			wb := w.codes[klo : (8*g-1)*in+khi]
			sb := w.Scales[b : (8*g-1)*nb+b+1]
			dotQ8Block8(&drow[:8*g][0], &xb[0], &wb[0], in, len(xb), &sb[0], nb, g)
			j = 8 * g
		}
		for ; j < out; j++ {
			wb := w.codes[j*in+klo : j*in+khi]
			var s int32
			for k, c := range wb {
				s += int32(xb[k]) * int32(c)
			}
			drow[j] += float32(s) * w.Scales[j*nb+b]
		}
	}
	scaleRow(drow, sx)
}
