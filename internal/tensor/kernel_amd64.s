#include "textflag.h"

// AVX implementations of the two fp32 microkernels. kernel.go is the
// arithmetic contract; these routines keep it lane by lane: every product is
// rounded by a multiply and every sum by a separate add (a fused multiply-add
// rounds once and would change results), in the same order per element as
// the Go loops. The wrappers in kernel.go own every bound: each pointer
// arrives from a slice already cut to the last element touched here.

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
