#include "textflag.h"

// AVX implementations of the two fp32 microkernels. kernel.go is the
// arithmetic contract; these routines keep it lane by lane: every product is
// rounded by a multiply and every sum by a separate add (a fused multiply-add
// rounds once and would change results), in the same order per element as
// the Go loops. The wrappers in kernel.go own every bound: each pointer
// arrives from a slice already cut to the last element touched here.
//
// dotQ8Block8 is the int8 matmul's block step, under qint8.go's contract:
// its integer sums are exact in any order, and its float epilogue keeps the
// Go loop's multiply, then add, per channel; matMulQ8Row cuts its operands.
// absmaxLanes and quantizeLanes are the activation quantizer's two passes,
// element for element the Go loops of quantizeRowQ8, which cuts theirs.
// peakMulAdd and peakMaddubs, at the end, are BenchmarkPeak's ceilings.

// func cpuHasAVX() bool
//
// CPUID.1:ECX bit 28 says the CPU has AVX, bit 27 that the OS uses XSAVE, and
// XCR0 bits 1 and 2 that it saves the XMM and YMM state across switches.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func axpy4Block(dst *float32, dc int, a *float32, ars, acs int, b *float32, bc, w, rows int)
//
// One four-step reduction group of axpyRows over a block of rows. For
// r < rows and j < w, with d = dst + r·dc, ar = a + r·ars, bN = b + N·bc:
//
//	v = d[j]; v += ar[0]·b0[j]; v += ar[acs]·b1[j]; v += ar[2·acs]·b2[j]; v += ar[3·acs]·b3[j]; d[j] = v
//
// Columns are independent, so eight (then four, then one) go through the
// four adds side by side. Strides are in elements; w ≥ 1 and rows ≥ 1.
//
// The row pointers are kept at the end of the row and the column index CX
// runs from -w up to 0, so it is also the count of columns left.
TEXT ·axpy4Block(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ dc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ acs+32(FP), R10
	MOVQ b+40(FP), BX
	MOVQ bc+48(FP), R11
	MOVQ w+56(FP), CX
	MOVQ rows+64(FP), DX
	SHLQ $2, R8                // strides in bytes
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R10)(R10*2), AX
	ADDQ SI, AX                // &ar[3·acs], advanced with SI
	LEAQ (DI)(CX*4), DI        // end of d
	LEAQ (BX)(CX*4), BX        // end of b0
	LEAQ (BX)(R11*1), R12      // end of b1
	LEAQ (BX)(R11*2), R13      // end of b2
	ADDQ R13, R11              // end of b3

axpyrow:
	VBROADCASTSS (SI), Y0
	VBROADCASTSS (SI)(R10*1), Y1
	VBROADCASTSS (SI)(R10*2), Y2
	VBROADCASTSS (AX), Y3
	MOVQ w+56(FP), CX
	NEGQ CX
	CMPQ CX, $-8
	JG   axpy4

axpy8:
	VMOVUPS (DI)(CX*4), Y4
	VMULPS  (BX)(CX*4), Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R12)(CX*4), Y1, Y6
	VADDPS  Y6, Y4, Y4
	VMULPS  (R13)(CX*4), Y2, Y7
	VADDPS  Y7, Y4, Y4
	VMULPS  (R11)(CX*4), Y3, Y8
	VADDPS  Y8, Y4, Y4
	VMOVUPS Y4, (DI)(CX*4)
	ADDQ    $8, CX
	CMPQ    CX, $-8
	JLE     axpy8

axpy4:
	CMPQ CX, $-4
	JG   axpy1
	VMOVUPS (DI)(CX*4), X4
	VMULPS  (BX)(CX*4), X0, X5
	VADDPS  X5, X4, X4
	VMULPS  (R12)(CX*4), X1, X6
	VADDPS  X6, X4, X4
	VMULPS  (R13)(CX*4), X2, X7
	VADDPS  X7, X4, X4
	VMULPS  (R11)(CX*4), X3, X8
	VADDPS  X8, X4, X4
	VMOVUPS X4, (DI)(CX*4)
	ADDQ    $4, CX

axpy1:
	TESTQ CX, CX
	JGE   axpynext

axpy1loop:
	VMOVSS (DI)(CX*4), X4
	VMULSS (BX)(CX*4), X0, X5
	VADDSS X5, X4, X4
	VMULSS (R12)(CX*4), X1, X6
	VADDSS X6, X4, X4
	VMULSS (R13)(CX*4), X2, X7
	VADDSS X7, X4, X4
	VMULSS (R11)(CX*4), X3, X8
	VADDSS X8, X4, X4
	VMOVSS X4, (DI)(CX*4)
	INCQ   CX
	JNZ    axpy1loop

axpynext:
	ADDQ R8, DI
	ADDQ R9, SI
	ADDQ R9, AX
	DECQ DX
	JNZ  axpyrow
	VZEROUPPER
	RET

// func dotRow4(dr, ar *float32, w int, b *float32, bc, groups int)
//
// dotRows for one row of a against 4·groups rows of b, four at a time. Lane l
// of an accumulator is the dot product's partial sum s_l over c ≡ l (mod 4);
// the w mod 4 remainder goes into lane 0; two rounds of horizontal adds give
// (s0+s1)+(s2+s3) for each of the four rows, stored as dr[4g .. 4g+3].
// Strides are in elements; w ≥ 1 and groups ≥ 1.
TEXT ·dotRow4(SB), NOSPLIT, $0-48
	MOVQ dr+0(FP), DI
	MOVQ ar+8(FP), SI
	MOVQ w+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ bc+32(FP), R8
	MOVQ groups+40(FP), DX
	SHLQ $2, R8                // stride in bytes
	LEAQ (SI)(CX*4), SI        // end of ar
	LEAQ (BX)(CX*4), BX        // end of b row 0
	NEGQ CX
	MOVQ CX, R12               // -w

dotgroup:
	LEAQ   (BX)(R8*1), R9      // end of b row 1
	LEAQ   (BX)(R8*2), R10     // end of b row 2
	LEAQ   (R10)(R8*1), R11    // end of b row 3
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   R12, CX
	CMPQ   CX, $-4
	JG     dot1

dot4:
	VMOVUPS (SI)(CX*4), X4
	VMULPS  (BX)(CX*4), X4, X5
	VADDPS  X5, X0, X0
	VMULPS  (R9)(CX*4), X4, X6
	VADDPS  X6, X1, X1
	VMULPS  (R10)(CX*4), X4, X7
	VADDPS  X7, X2, X2
	VMULPS  (R11)(CX*4), X4, X8
	VADDPS  X8, X3, X3
	ADDQ    $4, CX
	CMPQ    CX, $-4
	JLE     dot4

dot1:
	TESTQ CX, CX
	JGE   dotfold

dot1loop:
	VMOVSS (SI)(CX*4), X4
	VMULSS (BX)(CX*4), X4, X5
	VADDSS X5, X0, X0          // lanes 1-3 of X0 pass through
	VMULSS (R9)(CX*4), X4, X6
	VADDSS X6, X1, X1
	VMULSS (R10)(CX*4), X4, X7
	VADDSS X7, X2, X2
	VMULSS (R11)(CX*4), X4, X8
	VADDSS X8, X3, X3
	INCQ   CX
	JNZ    dot1loop

dotfold:
	VHADDPS X1, X0, X0         // s0+s1, s2+s3, t0+t1, t2+t3
	VHADDPS X3, X2, X2
	VHADDPS X2, X0, X0         // (s0+s1)+(s2+s3), then rows 1, 2, 3
	VMOVUPS X0, (DI)
	ADDQ    $16, DI
	LEAQ    (BX)(R8*4), BX
	DECQ    DX
	JNZ     dotgroup
	RET

// 0, 1, …, 7 as int32: dotQ8Block8's scale offsets in units of nb·4 bytes.
DATA iota8<>+0(SB)/4, $0
DATA iota8<>+4(SB)/4, $1
DATA iota8<>+8(SB)/4, $2
DATA iota8<>+12(SB)/4, $3
DATA iota8<>+16(SB)/4, $4
DATA iota8<>+20(SB)/4, $5
DATA iota8<>+24(SB)/4, $6
DATA iota8<>+28(SB)/4, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $32

// func dotQ8Block8(dr *float32, x, w *int8, in, n int, sc *float32, nb, groups int)
//
// One scale block of the int8 matmul (qint8.go) for one activation row and
// 8·groups output channels, eight at a time. With w_j = w + j·in, for
// j < 8·groups:
//
//	dr[j] += float32(Σ_{k<n} x[k]·w_j[k]) · sc[j·nb]
//
// the multiply rounded, then the add. The integer sum is exact, whatever the
// order its 32-code chunks and lanes are added in. Per chunk VPABSB gives |x|
// as unsigned bytes, VPSIGNB moves x's sign onto each channel's w (zeroing it
// where x is 0), and VPMADDUBSW adds adjacent |x|·(±w) products into int16
// lanes: no code is -128, so a pair sum is at most 2·127·127 = 32 258 and
// never saturates. VPMADDWD by ones widens the pairs to int32 and VPADDD adds
// them to the channel's accumulator. After the block six VPHADDD and one
// cross-half add fold the eight accumulators into the eight sums, and one
// VGATHERDPS loads their eight scales, nb apart. n is a positive multiple
// of 16 (a last 16 runs on X registers, whose VEX forms zero the upper
// halves the 256-bit accumulate then adds); in and nb are strides in
// elements; groups ≥ 1. AVX2: runs only where useLanes.
//
// Chunk k of channel c is at AX + c·in with AX = w + k: the seven nonzero
// offsets in, 2·in, …, 7·in come from R8 = in, R9 = 3·in, R10 = 5·in and
// R11 = 7·in scaled by 1, 2 or 4.
TEXT ·dotQ8Block8(SB), NOSPLIT, $0-64
	MOVQ     dr+0(FP), DI
	MOVQ     x+8(FP), SI
	MOVQ     w+16(FP), BX
	MOVQ     in+24(FP), R8
	MOVQ     n+32(FP), CX
	MOVQ     sc+40(FP), R12
	MOVQ     nb+48(FP), R13
	MOVQ     groups+56(FP), DX
	SHLQ     $2, R13           // scale stride in bytes
	ADDQ     CX, SI            // end of x
	ADDQ     CX, BX            // end of channel 0's block
	LEAQ     (R8)(R8*2), R9
	LEAQ     (R8)(R8*4), R10
	LEAQ     (R9)(R8*4), R11
	VPCMPEQW Y15, Y15, Y15
	VPSRLW   $15, Y15, Y15     // sixteen int16 ones
	VMOVD        R13, X14
	VPBROADCASTD X14, Y14
	VPMULLD      iota8<>(SB), Y14, Y14 // channel c's scale at c·nb·4 bytes

q8group:
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	MOVQ  n+32(FP), CX
	NEGQ  CX                   // chunk offset from the block's end, up to 0
	CMPQ  CX, $-32
	JG    q8half

q8chunk:
	LEAQ    (BX)(CX*1), AX
	VMOVDQU (SI)(CX*1), Y0
	VPABSB  Y0, Y1
	VMOVDQU    (AX), Y2
	VPSIGNB    Y0, Y2, Y2
	VPMADDUBSW Y2, Y1, Y2
	VPMADDWD   Y15, Y2, Y2
	VPADDD     Y2, Y4, Y4
	VMOVDQU    (AX)(R8*1), Y3
	VPSIGNB    Y0, Y3, Y3
	VPMADDUBSW Y3, Y1, Y3
	VPMADDWD   Y15, Y3, Y3
	VPADDD     Y3, Y5, Y5
	VMOVDQU    (AX)(R8*2), Y12
	VPSIGNB    Y0, Y12, Y12
	VPMADDUBSW Y12, Y1, Y12
	VPMADDWD   Y15, Y12, Y12
	VPADDD     Y12, Y6, Y6
	VMOVDQU    (AX)(R9*1), Y13
	VPSIGNB    Y0, Y13, Y13
	VPMADDUBSW Y13, Y1, Y13
	VPMADDWD   Y15, Y13, Y13
	VPADDD     Y13, Y7, Y7
	VMOVDQU    (AX)(R8*4), Y2
	VPSIGNB    Y0, Y2, Y2
	VPMADDUBSW Y2, Y1, Y2
	VPMADDWD   Y15, Y2, Y2
	VPADDD     Y2, Y8, Y8
	VMOVDQU    (AX)(R10*1), Y3
	VPSIGNB    Y0, Y3, Y3
	VPMADDUBSW Y3, Y1, Y3
	VPMADDWD   Y15, Y3, Y3
	VPADDD     Y3, Y9, Y9
	VMOVDQU    (AX)(R9*2), Y12
	VPSIGNB    Y0, Y12, Y12
	VPMADDUBSW Y12, Y1, Y12
	VPMADDWD   Y15, Y12, Y12
	VPADDD     Y12, Y10, Y10
	VMOVDQU    (AX)(R11*1), Y13
	VPSIGNB    Y0, Y13, Y13
	VPMADDUBSW Y13, Y1, Y13
	VPMADDWD   Y15, Y13, Y13
	VPADDD     Y13, Y11, Y11
	ADDQ    $32, CX
	CMPQ    CX, $-32
	JLE     q8chunk

q8half:
	TESTQ   CX, CX
	JGE     q8fold
	LEAQ    (BX)(CX*1), AX
	VMOVDQU (SI)(CX*1), X0
	VPABSB  X0, X1
	VMOVDQU    (AX), X2
	VPSIGNB    X0, X2, X2
	VPMADDUBSW X2, X1, X2
	VPMADDWD   X15, X2, X2
	VPADDD     Y2, Y4, Y4
	VMOVDQU    (AX)(R8*1), X3
	VPSIGNB    X0, X3, X3
	VPMADDUBSW X3, X1, X3
	VPMADDWD   X15, X3, X3
	VPADDD     Y3, Y5, Y5
	VMOVDQU    (AX)(R8*2), X12
	VPSIGNB    X0, X12, X12
	VPMADDUBSW X12, X1, X12
	VPMADDWD   X15, X12, X12
	VPADDD     Y12, Y6, Y6
	VMOVDQU    (AX)(R9*1), X13
	VPSIGNB    X0, X13, X13
	VPMADDUBSW X13, X1, X13
	VPMADDWD   X15, X13, X13
	VPADDD     Y13, Y7, Y7
	VMOVDQU    (AX)(R8*4), X2
	VPSIGNB    X0, X2, X2
	VPMADDUBSW X2, X1, X2
	VPMADDWD   X15, X2, X2
	VPADDD     Y2, Y8, Y8
	VMOVDQU    (AX)(R10*1), X3
	VPSIGNB    X0, X3, X3
	VPMADDUBSW X3, X1, X3
	VPMADDWD   X15, X3, X3
	VPADDD     Y3, Y9, Y9
	VMOVDQU    (AX)(R9*2), X12
	VPSIGNB    X0, X12, X12
	VPMADDUBSW X12, X1, X12
	VPMADDWD   X15, X12, X12
	VPADDD     Y12, Y10, Y10
	VMOVDQU    (AX)(R11*1), X13
	VPSIGNB    X0, X13, X13
	VPMADDUBSW X13, X1, X13
	VPMADDWD   X15, X13, X13
	VPADDD     Y13, Y11, Y11

q8fold:
	VPHADDD    Y5, Y4, Y4      // per half: pair sums of channels 0, 1
	VPHADDD    Y7, Y6, Y6      // of channels 2, 3
	VPHADDD    Y6, Y4, Y4      // per half: a partial sum of channels 0-3
	VPHADDD    Y9, Y8, Y8
	VPHADDD    Y11, Y10, Y10
	VPHADDD    Y10, Y8, Y8     // of channels 4-7
	VPERM2I128 $0x20, Y8, Y4, Y2
	VPERM2I128 $0x31, Y8, Y4, Y3
	VPADDD     Y3, Y2, Y2      // the eight sums
	VCVTDQ2PS  Y2, Y2
	VPCMPEQD   Y12, Y12, Y12   // gather every lane
	VGATHERDPS Y12, (R12)(Y14*1), Y3 // the eight channels' scales
	VMULPS     Y3, Y2, Y2
	VADDPS     (DI), Y2, Y2
	VMOVUPS    Y2, (DI)
	ADDQ       $32, DI
	LEAQ       (BX)(R8*8), BX
	LEAQ       (R12)(R13*8), R12
	DECQ       DX
	JNZ        q8group
	VZEROUPPER
	RET

// func absmaxLanes(x *float32, n int) float32
//
// The activation quantizer's row maximum of |x[k]| over k < n, eight lanes
// at a time, from +0. |v| clears the sign bit, and VMAXPS with the running
// maximum as its second source keeps it whenever v > max is false — for
// NaN too — which is the Go loop's comparison; the maximum of non-NaN values
// does not depend on the order they are taken in. n is a positive multiple
// of 8. AVX: runs where useLanes, with the routine after it.
TEXT ·absmaxLanes(SB), NOSPLIT, $0-20
	MOVQ     x+0(FP), SI
	MOVQ     n+8(FP), CX
	VPCMPEQD Y1, Y1, Y1
	VPSRLD   $1, Y1, Y1        // every bit but the sign
	VXORPS   Y0, Y0, Y0
	LEAQ     (SI)(CX*4), SI
	NEGQ     CX

absmax8:
	VANDPS (SI)(CX*4), Y1, Y2
	VMAXPS Y0, Y2, Y0          // v > max ? v : max
	ADDQ   $8, CX
	JNZ    absmax8
	VEXTRACTF128 $1, Y0, X2
	VMAXPS       X2, X0, X0
	VPERMILPS    $0x0e, X0, X2
	VMAXPS       X2, X0, X0
	VPERMILPS    $0x01, X0, X2
	VMAXPS       X2, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func quantizeLanes(xq *int8, x *float32, n int, inv float32)
//
// The activation quantizer's codes, eight at a time: for k < n,
//
//	xq[k] = int8(int32(x[k]·inv + copysign(0.5, x[k]·inv)))
//
// roundToInt32's rounding, its multiply and add each rounded, VCVTTPS2DQ
// truncating as Go's conversion does (and giving MinInt32 where Go's does:
// NaN and out of range). The code is the int32's low byte: masked to 0–255,
// the two unsigned-saturating packs cannot saturate and keep exactly that
// byte. n is a positive multiple of 8. AVX2: runs only where useLanes.
TEXT ·quantizeLanes(SB), NOSPLIT, $0-28
	MOVQ         xq+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y0
	VPCMPEQD     Y1, Y1, Y1
	VPSRLD       $24, Y1, Y3   // the low byte of each int32
	VPSLLD       $31, Y1, Y1   // the sign bit
	MOVL         $0x3f000000, AX
	VMOVD        AX, X2
	VPBROADCASTD X2, Y2        // 0.5
	LEAQ         (SI)(CX*4), SI
	ADDQ         CX, DI
	NEGQ         CX

quant8:
	VMULPS       (SI)(CX*4), Y0, Y4
	VANDPS       Y1, Y4, Y5
	VORPS        Y2, Y5, Y5
	VADDPS       Y5, Y4, Y4
	VCVTTPS2DQ   Y4, Y4
	VPAND        Y3, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPACKUSDW    X5, X4, X4    // eight words, k ascending
	VPACKUSWB    X4, X4, X4    // eight bytes, twice
	VMOVQ        X4, (DI)(CX*1)
	ADDQ         $8, CX
	JNZ          quant8
	VZEROUPPER
	RET

// func peakMulAdd(n int)
//
// The fp32 ceiling BenchmarkPeak measures: n rounds of seven independent
// 256-bit VMULPS + VADDPS pairs, the instruction mix of the two microkernels
// above (eight lanes, two flops a lane per pair). Only the seven
// accumulators carry a dependence from round to round, so the loop is bound
// by issue rate, not latency. All operands are zero: no denormal slows it.
TEXT ·peakMulAdd(SB), NOSPLIT, $0-8
	MOVQ   n+0(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

peakfp:
	VMULPS Y0, Y0, Y8
	VMULPS Y0, Y0, Y9
	VMULPS Y0, Y0, Y10
	VMULPS Y0, Y0, Y11
	VMULPS Y0, Y0, Y12
	VMULPS Y0, Y0, Y13
	VMULPS Y0, Y0, Y14
	VADDPS Y8, Y1, Y1
	VADDPS Y9, Y2, Y2
	VADDPS Y10, Y3, Y3
	VADDPS Y11, Y4, Y4
	VADDPS Y12, Y5, Y5
	VADDPS Y13, Y6, Y6
	VADDPS Y14, Y7, Y7
	DECQ   CX
	JNZ    peakfp
	VZEROUPPER
	RET

// func peakMaddubs(n int)
//
// The int8 ceiling BenchmarkPeak measures: n rounds of six independent
// VPMADDUBSW + VPMADDWD + VPADDD chains, the multiply-accumulate of an
// unsigned by a signed byte vector into eight int32 sums (32 byte products,
// so 64 integer operations, per chain). Only the six accumulators carry a
// dependence from round to round. The bytes are all ones (255 as u8, -1 as
// s8): each pair sums to -510, far from the i16 saturation VPMADDUBSW does.
// The three are AVX2 on Y registers, so it runs only where useLanes.
TEXT ·peakMaddubs(SB), NOSPLIT, $0-8
	MOVQ     n+0(FP), CX
	VPCMPEQB Y0, Y0, Y0
	VPCMPEQW Y15, Y15, Y15
	VPSRLW   $15, Y15, Y15     // sixteen int16 ones
	VPXOR    Y7, Y7, Y7
	VPXOR    Y8, Y8, Y8
	VPXOR    Y9, Y9, Y9
	VPXOR    Y10, Y10, Y10
	VPXOR    Y11, Y11, Y11
	VPXOR    Y12, Y12, Y12

peakq8:
	VPMADDUBSW Y0, Y0, Y1
	VPMADDUBSW Y0, Y0, Y2
	VPMADDUBSW Y0, Y0, Y3
	VPMADDUBSW Y0, Y0, Y4
	VPMADDUBSW Y0, Y0, Y5
	VPMADDUBSW Y0, Y0, Y6
	VPMADDWD   Y15, Y1, Y1
	VPMADDWD   Y15, Y2, Y2
	VPMADDWD   Y15, Y3, Y3
	VPMADDWD   Y15, Y4, Y4
	VPMADDWD   Y15, Y5, Y5
	VPMADDWD   Y15, Y6, Y6
	VPADDD     Y1, Y7, Y7
	VPADDD     Y2, Y8, Y8
	VPADDD     Y3, Y9, Y9
	VPADDD     Y4, Y10, Y10
	VPADDD     Y5, Y11, Y11
	VPADDD     Y6, Y12, Y12
	DECQ       CX
	JNZ        peakq8
	VZEROUPPER
	RET
