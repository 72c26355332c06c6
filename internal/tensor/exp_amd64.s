#include "textflag.h"

// Eight float32 lanes under the two elementwise consumers of expReduce: GELU
// and the fused softmax's exponential pass (plus that softmax's final
// scaling pass). kernel.go is the contract; per lane every instruction below
// is one operation of the Go expression it stands for, in the same order —
// rounded multiplies and rounded adds, never a fused multiply-add — so a lane
// holds the bits the Go loop would have produced for that element. Nothing
// here crosses lanes: the softmax's row maximum and row sum are reductions
// and stay in Go.
//
// VPADDD and VPSLLD on Y registers are AVX2, so these routines run only when
// useLanes (useAVX and CPUID leaf 7 EBX bit 5). The wrappers in strided.go
// own every bound: n ≥ 1 elements, pointers from slices cut to n. The
// n mod 8 tail is loaded and stored under a VMASKMOVPS mask, which neither
// reads nor writes (nor faults on) the lanes it leaves out; they compute on
// zeros and are dropped.

// Every constant is eight copies of one float32 (or int32) bit pattern, so
// that it can be an instruction's 256-bit memory operand.
#define CONST8(name, bits) \
	DATA name<>+0(SB)/4, $bits; \
	DATA name<>+4(SB)/4, $bits; \
	DATA name<>+8(SB)/4, $bits; \
	DATA name<>+12(SB)/4, $bits; \
	DATA name<>+16(SB)/4, $bits; \
	DATA name<>+20(SB)/4, $bits; \
	DATA name<>+24(SB)/4, $bits; \
	DATA name<>+28(SB)/4, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST8(log2e, 0x3fb8aa3b)     // expLog2E
CONST8(ln2hi, 0x3f317200)     // expLn2Hi
CONST8(ln2lo, 0x35bfbe8e)     // expLn2Lo
CONST8(c6, 0x3ab60b61)        // 1.0/720
CONST8(c5, 0x3c088889)        // 1.0/120
CONST8(c4, 0x3d2aaaab)        // 1.0/24
CONST8(c3, 0x3e2aaaab)        // 1.0/6
CONST8(half, 0x3f000000)      // 0.5
CONST8(neghalf, 0xbf000000)   // -0.5
CONST8(one, 0x3f800000)       // 1
CONST8(two, 0x40000000)       // 2
CONST8(ten, 0x41200000)       // 10
CONST8(bias, 0x0000007f)      // int32 127, the float32 exponent bias
CONST8(signbit, 0x80000000)
CONST8(absbits, 0x7fffffff)
CONST8(underflow, 0xc2aeac50) // expUnderflow
CONST8(cubic, 0x3d372713)     // geluCubic
CONST8(sqrt2pi, 0x3f4c422a)   // geluC

// Eight all-ones lanes then eight zero lanes: the 32 bytes starting 4·r bytes
// before the middle are the VMASKMOVPS mask of a tail of r elements.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// EXPLANES is expReduce followed by p·pow2(n): Y2 = x and H = the rounding
// offset (a register or a constant) in, Y4 = p·2^n out; Y2, Y3 and Y5 are
// clobbered. Line by line:
//
//	n  = int32(x·expLog2E + H)            VCVTTPS2DQ truncates, as Go's conversion does
//	fn = float32(n)
//	f  = (x − fn·expLn2Hi) − fn·expLn2Lo
//	p  = (((((c6·f + c5)·f + c4)·f + c3)·f + 0.5)·f + 1)·f + 1
//	2ⁿ = bits (n + 127) << 23             pow2
//	p·2ⁿ
//
// A NaN x makes n the integer indefinite and f, hence p, NaN: it propagates
// without a branch, as it does through the Go code. Lanes whose x is outside
// expReduce's domain hold garbage that the caller selects away.
#define EXPLANES(H) \
	VMULPS     log2e<>(SB), Y2, Y3; \
	VADDPS     H, Y3, Y3; \
	VCVTTPS2DQ Y3, Y3; \
	VCVTDQ2PS  Y3, Y5; \
	VMULPS     ln2hi<>(SB), Y5, Y4; \
	VSUBPS     Y4, Y2, Y2; \
	VMULPS     ln2lo<>(SB), Y5, Y4; \
	VSUBPS     Y4, Y2, Y2; \
	VMULPS     c6<>(SB), Y2, Y4; \
	VADDPS     c5<>(SB), Y4, Y4; \
	VMULPS     Y2, Y4, Y4; \
	VADDPS     c4<>(SB), Y4, Y4; \
	VMULPS     Y2, Y4, Y4; \
	VADDPS     c3<>(SB), Y4, Y4; \
	VMULPS     Y2, Y4, Y4; \
	VADDPS     half<>(SB), Y4, Y4; \
	VMULPS     Y2, Y4, Y4; \
	VADDPS     one<>(SB), Y4, Y4; \
	VMULPS     Y2, Y4, Y4; \
	VADDPS     one<>(SB), Y4, Y4; \
	VPADDD     bias<>(SB), Y3, Y3; \
	VPSLLD     $23, Y3, Y3; \
	VMULPS     Y3, Y4, Y4

// TAILMASK loads into Y15 the mask of the CX (1 to 7) elements left over.
#define TAILMASK \
	LEAQ    tailmask<>+32(SB), AX; \
	SHLQ    $2, CX; \
	SUBQ    CX, AX; \
	VMOVUPS (AX), Y15

// func cpuHasAVX2() bool
//
// CPUID.(EAX=7,ECX=0):EBX bit 5, where leaf 7 exists. That the OS saves the
// YMM state is cpuHasAVX's half of the question.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET

// GELULANES is geluScalar with TanhFast32 inlined: Y0 = v in, Y4 = gelu(v)
// out, Y1–Y6 clobbered.
//
//	u = geluC·(v + ((geluCubic·v)·v)·v)
//	e = p·2ⁿ from expReduce(2·u, signedHalf(u))      0.5 | u's sign bit
//	t = (e − 1)/(e + 1)
//	t = ±1 with u's sign where |u| ≥ 10               TanhFast32's x ≥ 10 → 1, x ≤ −10 → −1
//	0.5·v·(1 + t)
//
// The compare is false for NaN, which therefore keeps the NaN that e carries:
// TanhFast32's first branch.
#define GELULANES \
	VMULPS    cubic<>(SB), Y0, Y1; \
	VMULPS    Y0, Y1, Y1; \
	VMULPS    Y0, Y1, Y1; \
	VADDPS    Y1, Y0, Y1; \
	VMULPS    sqrt2pi<>(SB), Y1, Y1; \
	VANDPS    signbit<>(SB), Y1, Y6; \
	VORPS     half<>(SB), Y6, Y5; \
	VMULPS    two<>(SB), Y1, Y2; \
	EXPLANES(Y5); \
	VSUBPS    one<>(SB), Y4, Y3; \
	VADDPS    one<>(SB), Y4, Y4; \
	VDIVPS    Y4, Y3, Y3; \
	VANDPS    absbits<>(SB), Y1, Y1; \
	VCMPPS    $0x0d, ten<>(SB), Y1, Y1; \
	VORPS     one<>(SB), Y6, Y6; \
	VBLENDVPS Y1, Y6, Y3, Y3; \
	VMULPS    half<>(SB), Y0, Y4; \
	VADDPS    one<>(SB), Y3, Y3; \
	VMULPS    Y3, Y4, Y4

// func geluLanes(dst, src *float32, n int)
//
// dst[i] = geluScalar(src[i]) for i < n; n ≥ 1. dst may be src.
TEXT ·geluLanes(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	CMPQ CX, $8
	JLT  gelutail

gelu8:
	VMOVUPS (SI), Y0
	GELULANES
	VMOVUPS Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     gelu8

gelutail:
	TESTQ CX, CX
	JZ    geludone
	TAILMASK
	VMASKMOVPS (SI), Y15, Y0
	GELULANES
	VMASKMOVPS Y4, Y15, (DI)

geludone:
	VZEROUPPER
	RET

// SOFTMAXLANES is one step of softmaxExp: Y0 = v in, Y4 = e out, with
// Y6 = scale and Y7 = maxv in every lane; Y1–Y5 clobbered.
//
//	x = scale·v − maxv
//	e = p·2ⁿ from expReduce(x, −0.5), or +0 where x ≤ expUnderflow
//
// The compare is false for NaN, so a NaN score keeps its NaN: Go's
// !(x <= expUnderflow).
#define SOFTMAXLANES \
	VMULPS  Y0, Y6, Y2; \
	VSUBPS  Y7, Y2, Y2; \
	VCMPPS  $0x02, underflow<>(SB), Y2, Y1; \
	EXPLANES(neghalf<>(SB)); \
	VANDNPS Y4, Y1, Y4

// func softmaxExpLanes(row *float32, n int, scale, maxv float32)
//
// row[j] = e^(scale·row[j] − maxv) in place for j < n; n ≥ 1.
TEXT ·softmaxExpLanes(SB), NOSPLIT, $0-24
	MOVQ         row+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS scale+16(FP), Y6
	VBROADCASTSS maxv+20(FP), Y7
	CMPQ         CX, $8
	JLT          softtail

soft8:
	VMOVUPS (DI), Y0
	SOFTMAXLANES
	VMOVUPS Y4, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     soft8

softtail:
	TESTQ CX, CX
	JZ    softdone
	TAILMASK
	VMASKMOVPS (DI), Y15, Y0
	SOFTMAXLANES
	VMASKMOVPS Y4, Y15, (DI)

softdone:
	VZEROUPPER
	RET

// func scaleLanes(row *float32, n int, s float32)
//
// row[j] *= s in place for j < n; n ≥ 1.
TEXT ·scaleLanes(SB), NOSPLIT, $0-20
	MOVQ         row+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y6
	CMPQ         CX, $8
	JLT          scaletail

scale8:
	VMULPS  (DI), Y6, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     scale8

scaletail:
	TESTQ CX, CX
	JZ    scaledone
	TAILMASK
	VMASKMOVPS (DI), Y15, Y0
	VMULPS     Y0, Y6, Y0
	VMASKMOVPS Y0, Y15, (DI)

scaledone:
	VZEROUPPER
	RET
