//go:build amd64

#include "textflag.h"

// func qgemmKernel4x16(quads int64, a *int8, b *uint8, c *int32, ldc int64, store bool)
//
// Quantized GEMM micro-kernel: accumulates a 4×16 tile of int32 C (row
// stride ldc ints) with `quads` groups of 4 rank-1 byte updates from the
// packed panels.
//   a: quads groups of 16 bytes — 4 rows × 4 consecutive k-values (s8)
//   b: quads groups of 64 bytes — 16 cols × 4 consecutive k-values (u8)
// Per quad: the two B vectors (8 columns × 4 bytes each) are loaded once;
// each row broadcasts its 4-byte k-group (VPBROADCASTD), multiplies byte
// pairs into saturating int16 (VPMADDUBSW — saturation-free because
// activations are ≤ 127, see QuantParams), widens pairs into int32
// (VPMADDWD with ones) and accumulates (VPADDD). The quad loop is unrolled
// by two. With store set the tile starts from zero instead of from C, which
// is then only written.
TEXT ·qgemmKernel4x16(SB), NOSPLIT, $0-41
	MOVQ quads+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), DX
	SHLQ $2, DX            // row stride in bytes

	// Y8 = sixteen int16(1), for the VPMADDWD pair-sum widening.
	VPCMPEQD Y8, Y8, Y8
	VPSRLW   $15, Y8, Y8

	MOVBLZX store+40(FP), R9
	TESTL R9, R9
	JZ    load
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	JMP   start

load:
	// Load the 4×16 int32 C tile.
	MOVQ DI, R8
	VMOVDQU (R8), Y0
	VMOVDQU 32(R8), Y1
	ADDQ DX, R8
	VMOVDQU (R8), Y2
	VMOVDQU 32(R8), Y3
	ADDQ DX, R8
	VMOVDQU (R8), Y4
	VMOVDQU 32(R8), Y5
	ADDQ DX, R8
	VMOVDQU (R8), Y6
	VMOVDQU 32(R8), Y7

start:
	MOVQ AX, CX
	SHRQ $1, CX
	JZ   tail

loop2:
	VMOVDQU (BX), Y12
	VMOVDQU 32(BX), Y13

	VPBROADCASTD (SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y0, Y0
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y1, Y1

	VPBROADCASTD 4(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y2, Y2
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y3, Y3

	VPBROADCASTD 8(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y4, Y4
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y5, Y5

	VPBROADCASTD 12(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y6, Y6
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y7, Y7

	VMOVDQU 64(BX), Y12
	VMOVDQU 96(BX), Y13

	VPBROADCASTD 16(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y0, Y0
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y1, Y1

	VPBROADCASTD 20(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y2, Y2
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y3, Y3

	VPBROADCASTD 24(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y4, Y4
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y5, Y5

	VPBROADCASTD 28(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y6, Y6
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y7, Y7

	ADDQ $32, SI
	ADDQ $128, BX
	DECQ CX
	JNE  loop2

tail:
	TESTQ $1, AX
	JZ    done

	VMOVDQU (BX), Y12
	VMOVDQU 32(BX), Y13

	VPBROADCASTD (SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y0, Y0
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y1, Y1

	VPBROADCASTD 4(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y2, Y2
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y3, Y3

	VPBROADCASTD 8(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y4, Y4
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y5, Y5

	VPBROADCASTD 12(SI), Y14
	VPMADDUBSW Y14, Y12, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y6, Y6
	VPMADDUBSW Y14, Y13, Y15
	VPMADDWD   Y8, Y15, Y15
	VPADDD     Y15, Y7, Y7

done:
	// Store the tile back.
	MOVQ DI, R8
	VMOVDQU Y0, (R8)
	VMOVDQU Y1, 32(R8)
	ADDQ DX, R8
	VMOVDQU Y2, (R8)
	VMOVDQU Y3, 32(R8)
	ADDQ DX, R8
	VMOVDQU Y4, (R8)
	VMOVDQU Y5, 32(R8)
	ADDQ DX, R8
	VMOVDQU Y6, (R8)
	VMOVDQU Y7, 32(R8)
	VZEROUPPER
	RET

// func qgemmKernelVNNI8x32(quads int64, a *int8, b *uint8, c *int32, ldc int64, store bool)
//
// AVX512-VNNI micro-kernel at ZMM width over 8×32 packed quad panels:
//   a: quads groups of 32 bytes — 8 rows × 4 consecutive k-values (s8)
//   b: quads groups of 128 bytes — 32 cols × 4 consecutive k-values (u8)
// The tile is 8 rows × 32 int32 columns in 16 accumulators (Z0–Z15, row r
// in Z(2r) and Z(2r+1)). Per quad the two 64-byte B vectors are loaded once
// and each row's 4-byte k-group is broadcast once (VPBROADCASTD) and spent
// on both, each VPDPBUSD a u8×s8 dot-product-accumulate of four byte pairs
// into one int32 lane: 10 loads for 16 VPDPBUSD, and 16 independent chains
// to cover its latency on both 512-bit ports. Terms add in k order, in
// wrapping int32, so the tile is the portable kernel's to the bit. The quad
// loop is unrolled by two. With store set the tile starts from zero instead
// of from C, which is then only written. Only installed behind haveAVX512
// (see haveVNNI).
#define VNNIQUAD(boff, aoff) \
	VMOVDQU32    boff(BX), Z16;      \
	VMOVDQU32    boff+64(BX), Z17;   \
	VPBROADCASTD aoff(SI), Z18;      \
	VPBROADCASTD aoff+4(SI), Z19;    \
	VPBROADCASTD aoff+8(SI), Z20;    \
	VPBROADCASTD aoff+12(SI), Z21;   \
	VPDPBUSD     Z18, Z16, Z0;       \
	VPDPBUSD     Z18, Z17, Z1;       \
	VPDPBUSD     Z19, Z16, Z2;       \
	VPDPBUSD     Z19, Z17, Z3;       \
	VPDPBUSD     Z20, Z16, Z4;       \
	VPDPBUSD     Z20, Z17, Z5;       \
	VPDPBUSD     Z21, Z16, Z6;       \
	VPDPBUSD     Z21, Z17, Z7;       \
	VPBROADCASTD aoff+16(SI), Z22;   \
	VPBROADCASTD aoff+20(SI), Z23;   \
	VPBROADCASTD aoff+24(SI), Z24;   \
	VPBROADCASTD aoff+28(SI), Z25;   \
	VPDPBUSD     Z22, Z16, Z8;       \
	VPDPBUSD     Z22, Z17, Z9;       \
	VPDPBUSD     Z23, Z16, Z10;      \
	VPDPBUSD     Z23, Z17, Z11;      \
	VPDPBUSD     Z24, Z16, Z12;      \
	VPDPBUSD     Z24, Z17, Z13;      \
	VPDPBUSD     Z25, Z16, Z14;      \
	VPDPBUSD     Z25, Z17, Z15

TEXT ·qgemmKernelVNNI8x32(SB), NOSPLIT, $0-41
	MOVQ quads+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), DX
	SHLQ $2, DX            // row stride in bytes
	LEAQ (DX)(DX*2), R9    // three rows
	LEAQ (DI)(DX*4), R8    // row 4

	MOVBLZX store+40(FP), R10
	TESTL R10, R10
	JZ    v8load
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	JMP   v8start

v8load:
	// Load the 8×32 int32 C tile.
	VMOVDQU32 (DI), Z0
	VMOVDQU32 64(DI), Z1
	VMOVDQU32 (DI)(DX*1), Z2
	VMOVDQU32 64(DI)(DX*1), Z3
	VMOVDQU32 (DI)(DX*2), Z4
	VMOVDQU32 64(DI)(DX*2), Z5
	VMOVDQU32 (DI)(R9*1), Z6
	VMOVDQU32 64(DI)(R9*1), Z7
	VMOVDQU32 (R8), Z8
	VMOVDQU32 64(R8), Z9
	VMOVDQU32 (R8)(DX*1), Z10
	VMOVDQU32 64(R8)(DX*1), Z11
	VMOVDQU32 (R8)(DX*2), Z12
	VMOVDQU32 64(R8)(DX*2), Z13
	VMOVDQU32 (R8)(R9*1), Z14
	VMOVDQU32 64(R8)(R9*1), Z15

v8start:
	MOVQ AX, CX
	SHRQ $1, CX
	JZ   v8tail

v8loop2:
	VNNIQUAD(0, 0)
	VNNIQUAD(128, 32)
	ADDQ $64, SI
	ADDQ $256, BX
	DECQ CX
	JNE  v8loop2

v8tail:
	TESTQ $1, AX
	JZ    v8done
	VNNIQUAD(0, 0)

v8done:
	VMOVDQU32 Z0, (DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, (DI)(DX*1)
	VMOVDQU32 Z3, 64(DI)(DX*1)
	VMOVDQU32 Z4, (DI)(DX*2)
	VMOVDQU32 Z5, 64(DI)(DX*2)
	VMOVDQU32 Z6, (DI)(R9*1)
	VMOVDQU32 Z7, 64(DI)(R9*1)
	VMOVDQU32 Z8, (R8)
	VMOVDQU32 Z9, 64(R8)
	VMOVDQU32 Z10, (R8)(DX*1)
	VMOVDQU32 Z11, 64(R8)(DX*1)
	VMOVDQU32 Z12, (R8)(DX*2)
	VMOVDQU32 Z13, 64(R8)(DX*2)
	VMOVDQU32 Z14, (R8)(R9*1)
	VMOVDQU32 Z15, 64(R8)(R9*1)
	VZEROUPPER
	RET

// func transposeQuad16(dst *uint8, step int64, src *uint8, ld, panels int64)
//
// The quad panels' 4×16 byte transpose: for each of `panels` consecutive
// 16-column groups it loads 16 bytes from each of four rows ld bytes apart
// and stores the 64 bytes [c0r0 c0r1 c0r2 c0r3 | c1r0 … | c15r3] — bytes
// interleaved pairwise (PUNPCK{L,H}BW: rows 0,1 and rows 2,3), then the
// pairs word-wise (PUNPCK{L,H}WD) — at dst, dst+step, …. Two panels go
// through at YMM width while there are two (the unpacks work per 128-bit
// lane, so the low lanes hold one panel and the high lanes the next), the
// odd one at XMM width.
TEXT ·transposeQuad16(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ step+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ ld+24(FP), R8
	MOVQ panels+32(FP), CX
	LEAQ (SI)(R8*2), R9

tq2:
	CMPQ CX, $2
	JLT  tq1
	VMOVDQU (SI), Y0
	VMOVDQU (SI)(R8*1), Y1
	VMOVDQU (R9), Y2
	VMOVDQU (R9)(R8*1), Y3
	VPUNPCKLBW Y1, Y0, Y4
	VPUNPCKHBW Y1, Y0, Y5
	VPUNPCKLBW Y3, Y2, Y6
	VPUNPCKHBW Y3, Y2, Y7
	VPUNPCKLWD Y6, Y4, Y0
	VPUNPCKHWD Y6, Y4, Y1
	VPUNPCKLWD Y7, Y5, Y2
	VPUNPCKHWD Y7, Y5, Y3
	LEAQ (DI)(DX*1), R10
	VMOVDQU X0, (DI)
	VMOVDQU X1, 16(DI)
	VMOVDQU X2, 32(DI)
	VMOVDQU X3, 48(DI)
	VEXTRACTI128 $1, Y0, (R10)
	VEXTRACTI128 $1, Y1, 16(R10)
	VEXTRACTI128 $1, Y2, 32(R10)
	VEXTRACTI128 $1, Y3, 48(R10)
	ADDQ $32, SI
	ADDQ $32, R9
	LEAQ (R10)(DX*1), DI
	SUBQ $2, CX
	JMP  tq2

tq1:
	TESTQ CX, CX
	JEQ   tqdone
	VMOVDQU (SI), X0
	VMOVDQU (SI)(R8*1), X1
	VMOVDQU (R9), X2
	VMOVDQU (R9)(R8*1), X3
	VPUNPCKLBW X1, X0, X4
	VPUNPCKHBW X1, X0, X5
	VPUNPCKLBW X3, X2, X6
	VPUNPCKHBW X3, X2, X7
	VPUNPCKLWD X6, X4, X0
	VPUNPCKHWD X6, X4, X1
	VPUNPCKLWD X7, X5, X2
	VPUNPCKHWD X7, X5, X3
	VMOVDQU X0, (DI)
	VMOVDQU X1, 16(DI)
	VMOVDQU X2, 32(DI)
	VMOVDQU X3, 48(DI)

tqdone:
	VZEROUPPER
	RET

// func maxF32x8(dst, src *float32, n, k, stride int64)
//
// dst[i] = max(src[i], src[i+stride], …, src[i+(k-1)*stride]) for n >= 8
// float32s, k >= 1 — both passes of the separable FP32 max pool (stride = row
// width for the vertical one, 1 for the horizontal one). The running maximum
// is VMAXPS's second source, which it returns when the operands are equal or
// unordered, matching the portable loop's `if v > m`. A ragged end (n not a
// multiple of 8) is covered by one more vector overlapping the last full
// one instead of a scalar tail.
TEXT ·maxF32x8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+24(FP), R8
	MOVQ stride+32(FP), R9
	SHLQ $2, R9
	MOVQ CX, DX
	ANDQ $7, DX
	SHRQ $3, CX

mxfvec:
	VMOVUPS (SI), Y0
	MOVQ SI, R10
	MOVQ R8, R11

mxftap:
	DECQ R11
	JEQ  mxfstore
	ADDQ R9, R10
	VMOVUPS (R10), Y1
	VMAXPS  Y0, Y1, Y0
	JMP  mxftap

mxfstore:
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNE  mxfvec

	TESTQ DX, DX
	JEQ   mxfdone
	LEAQ  -32(SI)(DX*4), SI
	LEAQ  -32(DI)(DX*4), DI
	XORQ  DX, DX
	MOVQ  $1, CX
	JMP   mxfvec

mxfdone:
	VZEROUPPER
	RET

// func maxI32x8(dst, src *int32, n, k, stride int64)
//
// maxF32x8 over int32 accumulators (VPMAXSD): both passes of the separable
// max pool a fused INT8 pool takes over a product's raw accumulators. A
// ragged end is covered by one more vector overlapping the last full one.
TEXT ·maxI32x8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+24(FP), R8
	MOVQ stride+32(FP), R9
	SHLQ $2, R9
	MOVQ CX, DX
	ANDQ $7, DX
	SHRQ $3, CX

mxivec:
	VMOVDQU (SI), Y0
	MOVQ SI, R10
	MOVQ R8, R11

mxitap:
	DECQ R11
	JEQ  mxistore
	ADDQ R9, R10
	VPMAXSD (R10), Y0, Y0
	JMP  mxitap

mxistore:
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNE  mxivec

	TESTQ DX, DX
	JEQ   mxidone
	LEAQ  -32(SI)(DX*4), SI
	LEAQ  -32(DI)(DX*4), DI
	XORQ  DX, DX
	MOVQ  $1, CX
	JMP   mxivec

mxidone:
	VZEROUPPER
	RET

// poolShiftIdx moves the even columns one lane on (VPERMD) in the order
// VSHUFPS leaves them: lanes hold columns 0, 2, 8, 10 | 4, 6, 12, 14 of a
// 16-column step, and lane i of the result holds the column two past lane
// i's (lane 7's, column 16, is blended in from a broadcast).
DATA poolShiftIdx<>+0(SB)/4, $1
DATA poolShiftIdx<>+4(SB)/4, $4
DATA poolShiftIdx<>+8(SB)/4, $3
DATA poolShiftIdx<>+12(SB)/4, $6
DATA poolShiftIdx<>+16(SB)/4, $5
DATA poolShiftIdx<>+20(SB)/4, $2
DATA poolShiftIdx<>+24(SB)/4, $7
DATA poolShiftIdx<>+28(SB)/4, $7
GLOBL poolShiftIdx<>(SB), RODATA, $32

// func poolI32K3S2(dst, src *int32, w, pow, rows int64)
//
// The 3×3, stride-2 max pool of int32 accumulators in one pass, `rows`
// pooled rows of pow >= 8 outputs: pooled row r (at dst + r*pow) from the
// three input rows w apart at src + 2r*w. Eight outputs a step: the
// vertical maximum of input columns 2x…2x+15 in two registers and of column
// 2x+16 broadcast; then the window's three columns as the even columns and
// the odd ones (VSHUFPS, both in the same lane order) and the even ones
// moved on by one (VPERMD, column 2x+16 blended into the last lane); one
// VPERMQ puts the maxima in order. No column past 2x+16 is read. A ragged
// end steps back to end on the last output, recomputing a few. The maximum
// does not depend on the order of its operands, so each output is the
// window's, as poolRow computes it.
TEXT ·poolI32K3S2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ pow+24(FP), R9
	MOVQ rows+32(FP), R10
	SHLQ $2, R8                 // input row stride in bytes
	TESTQ R10, R10
	JEQ   pdone
	VMOVDQU poolShiftIdx<>(SB), Y15

prow:
	MOVQ SI, R11
	MOVQ DI, R12
	MOVQ R9, CX

pchunk:
	CMPQ CX, $8
	JGE  pstep
	TESTQ CX, CX
	JEQ   pnext
	MOVQ $8, DX                 // step back 8-CX outputs
	SUBQ CX, DX
	SHLQ $2, DX
	SUBQ DX, R12
	SHLQ $1, DX
	SUBQ DX, R11
	MOVQ $8, CX

pstep:
	VMOVDQU      (R11), Y0
	VMOVDQU      32(R11), Y1
	VPBROADCASTD 64(R11), Y2
	VPMAXSD      (R11)(R8*1), Y0, Y0
	VPMAXSD      32(R11)(R8*1), Y1, Y1
	VPBROADCASTD 64(R11)(R8*1), Y3
	VPMAXSD      Y3, Y2, Y2
	VPMAXSD      (R11)(R8*2), Y0, Y0
	VPMAXSD      32(R11)(R8*2), Y1, Y1
	VPBROADCASTD 64(R11)(R8*2), Y3
	VPMAXSD      Y3, Y2, Y2
	VSHUFPS      $0x88, Y1, Y0, Y4 // columns 2x
	VSHUFPS      $0xDD, Y1, Y0, Y5 // columns 2x+1
	VPERMD       Y4, Y15, Y6
	VPBLENDD     $0x80, Y2, Y6, Y6 // columns 2x+2
	VPMAXSD      Y5, Y4, Y4
	VPMAXSD      Y6, Y4, Y4
	VPERMQ       $0xD8, Y4, Y4
	VMOVDQU      Y4, (R12)
	ADDQ $64, R11
	ADDQ $32, R12
	SUBQ $8, CX
	JMP  pchunk

pnext:
	LEAQ (SI)(R8*2), SI
	LEAQ (DI)(R9*4), DI
	DECQ R10
	JNE  prow

pdone:
	VZEROUPPER
	RET

// func gather2F32x8(dst, src *float32, n int64)
//
// dst[i] = src[2*i] for n float32s, n a positive multiple of 8 — the stride-2
// gather of the stem's panel packing and of the pools' column pick, on FP32
// values and on the INT8 engine's quad words alike (it only moves them). Each
// iteration loads 16 consecutive source elements (so 2n in all, one past the
// last even one), keeps the even ones of each 128-bit lane (VSHUFPS 0x88)
// and puts the four pairs back in memory order (VPERMPD 0xD8).
TEXT ·gather2F32x8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

g2loop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y0
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNE  g2loop

	VZEROUPPER
	RET

// func copyRunsF32(dst *float32, dstStep int64, src *float32, srcStep, n, runs int64)
//
// Copies `runs` runs of n float32s, n = 16 or 32 (one micro-panel row of
// either FP32 tier): run i from src + i*srcStep to dst + i*dstStep, steps in
// elements. It is copyRuns' vector body (see conv.go).
TEXT ·copyRunsF32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStep+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStep+24(FP), R9
	MOVQ n+32(FP), DX
	MOVQ runs+40(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	CMPQ DX, $32
	JEQ  cr32

cr16:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNE  cr16
	VZEROUPPER
	RET

cr32:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNE  cr32
	VZEROUPPER
	RET

// func biasReLUF32x8(dst *float32, n int64, bias float32)
//
// dst = max(dst + bias, 0) element-wise over n float32s, n a positive
// multiple of 8 — the fused conv epilogue. The sum is VMAXPS's second source,
// which it returns for a NaN or a -0 sum, as the portable loop's
// `if v < 0 { v = 0 }` does.
TEXT ·biasReLUF32x8(SB), NOSPLIT, $0-20
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS bias+16(FP), Y1
	VXORPS Y2, Y2, Y2
	SHRQ $3, CX

brloop:
	VADDPS  (DI), Y1, Y0
	VMAXPS  Y0, Y2, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNE  brloop

	VZEROUPPER
	RET

// quadTransposeIdx is the 4×4 byte transpose within each 128-bit lane: the
// bytes r0c0 r0c1 r0c2 r0c3 r1c0 … r3c3 (four rows of four columns, as the
// VPACKSSDW/VPACKUSWB cascade leaves them) become c0r0 c0r1 c0r2 c0r3 c1r0 …
// c3r3, four quad words.
DATA quadTransposeIdx<>+0(SB)/8, $0x0d0905010c080400
DATA quadTransposeIdx<>+8(SB)/8, $0x0f0b07030e0a0602
DATA quadTransposeIdx<>+16(SB)/8, $0x0d0905010c080400
DATA quadTransposeIdx<>+24(SB)/8, $0x0f0b07030e0a0602
GLOBL quadTransposeIdx<>(SB), RODATA, $32

// func requantQuads8(dst *uint8, a0, a1, a2, a3 *int32, n int64, k *[8]float32, lo, hi uint8)
//
// Requantizes columns [0, n) of four accumulator rows, a0…a3, straight into
// n quad words at dst — column j's word at dst + 4j, row r's byte in its
// byte r — for n >= 8. Eight columns a step: each row converted to float32,
// scaled (acc*k[r] + k[4+r], one FMA), rounded to nearest-even (VCVTPS2DQ),
// the four rows narrowed with saturation (VPACKSSDW, VPACKUSWB: per 128-bit
// lane, the four rows of four columns, row-major) and clamped to [lo, hi],
// then transposed in-lane (VPSHUFB) to four words a lane, which is memory
// order. An accumulator and its word sit at the same byte offset from their
// bases. A ragged end is covered by one more step overlapping the last.
TEXT ·requantQuads8(SB), NOSPLIT, $0-58
	MOVQ dst+0(FP), DI
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ k+48(FP), AX
	VBROADCASTSS 0(AX), Y4
	VBROADCASTSS 4(AX), Y5
	VBROADCASTSS 8(AX), Y6
	VBROADCASTSS 12(AX), Y7
	VBROADCASTSS 16(AX), Y8
	VBROADCASTSS 20(AX), Y9
	VBROADCASTSS 24(AX), Y10
	VBROADCASTSS 28(AX), Y11
	VPBROADCASTB lo+56(FP), Y12
	VPBROADCASTB hi+57(FP), Y13
	VMOVDQU      quadTransposeIdx<>(SB), Y14
	SHLQ         $2, CX
	XORQ         BX, BX

rqqloop:
	VMOVDQU (R8)(BX*1), Y0
	VMOVDQU (R9)(BX*1), Y1
	VMOVDQU (R10)(BX*1), Y2
	VMOVDQU (R11)(BX*1), Y3

	VCVTDQ2PS Y0, Y0
	VCVTDQ2PS Y1, Y1
	VCVTDQ2PS Y2, Y2
	VCVTDQ2PS Y3, Y3

	VFMADD213PS Y8, Y4, Y0
	VFMADD213PS Y9, Y5, Y1
	VFMADD213PS Y10, Y6, Y2
	VFMADD213PS Y11, Y7, Y3

	VCVTPS2DQ Y0, Y0
	VCVTPS2DQ Y1, Y1
	VCVTPS2DQ Y2, Y2
	VCVTPS2DQ Y3, Y3

	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPACKUSWB Y2, Y0, Y0
	VPMAXUB   Y12, Y0, Y0
	VPMINUB   Y13, Y0, Y0
	VPSHUFB   Y14, Y0, Y0
	VMOVDQU   Y0, (DI)(BX*1)

	ADDQ $32, BX
	CMPQ BX, CX
	JEQ  rqqdone
	LEAQ 32(BX), DX
	CMPQ DX, CX
	JLE  rqqloop
	LEAQ -32(CX), BX
	JMP  rqqloop

rqqdone:
	VZEROUPPER
	RET

// func bilinearColsU16x4(dst *uint64, src *uint8, offs *int, wts *uint16, n int64)
//
// BilinearColsU16's vector body, n >= 4 columns (see bilinear.go). Four
// columns a step: each column's 8-byte source pair is widened to eight words
// (VPMOVZXBW, two pairs to a YMM), weighed by the column's eight u16 weights
// (VPMULLW; a product of a byte and a weight <= 256 fits the word), and the
// pair's right pixel added to its left one by unpacking the quadwords of two
// such registers against each other (VPUNPCKL/HQDQ, VPADDW) and putting them
// back in column order (VPERMQ 0xD8). A ragged end is covered by one more
// step overlapping the last.
TEXT ·bilinearColsU16x4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), BX
	MOVQ wts+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ CX, R12
	ANDQ $3, R12
	SHRQ $2, CX

bhstep:
	MOVQ        (BX), R8
	MOVQ        8(BX), R9
	MOVQ        16(BX), R10
	MOVQ        24(BX), R11
	VMOVQ       (SI)(R8*1), X0
	VPINSRQ     $1, (SI)(R9*1), X0, X0
	VMOVQ       (SI)(R10*1), X1
	VPINSRQ     $1, (SI)(R11*1), X1, X1
	VPMOVZXBW   X0, Y0
	VPMOVZXBW   X1, Y1
	VPMULLW     (DX), Y0, Y0
	VPMULLW     32(DX), Y1, Y1
	VPUNPCKLQDQ Y1, Y0, Y2
	VPUNPCKHQDQ Y1, Y0, Y3
	VPADDW      Y3, Y2, Y2
	VPERMQ      $0xD8, Y2, Y2
	VMOVDQU     Y2, (DI)
	ADDQ $32, BX
	ADDQ $64, DX
	ADDQ $32, DI
	DECQ CX
	JNE  bhstep

	TESTQ R12, R12
	JEQ   bhdone
	LEAQ  -32(BX)(R12*8), BX
	SHLQ  $4, R12
	LEAQ  -64(DX)(R12*1), DX
	SHRQ  $1, R12
	LEAQ  -32(DI)(R12*1), DI
	XORQ  R12, R12
	MOVQ  $1, CX
	JMP   bhstep

bhdone:
	VZEROUPPER
	RET

// BLENDROWS4 leaves in a the four output pixels of the vertical pass over
// the u16 lanes of a (top) and b (bottom), as bytes in the low half of each
// word (see BilinearRowsU8Portable): h and l are scratch, Y8/Y9 hold wy and
// 256-wy, Y10 the low-byte mask, Y11 the rounding 128.
#define BLENDROWS4(a, b, h, l) \
	VPSRLW  $8, a, h;  \
	VPSRLW  $8, b, l;  \
	VPAND   Y10, a, a; \
	VPAND   Y10, b, b; \
	VPMULLW Y9, h, h;  \
	VPMULLW Y8, l, l;  \
	VPADDW  l, h, h;   \
	VPMULLW Y9, a, a;  \
	VPMULLW Y8, b, b;  \
	VPADDW  b, a, a;   \
	VPSRLW  $8, a, a;  \
	VPADDW  a, h, h;   \
	VPADDW  Y11, h, h; \
	VPSRLW  $8, h, a

// func bilinearRowsU8x8(dst *uint8, top, bot *uint64, n, wy int64)
//
// BilinearRowsU8's vector body, n >= 8 pixels (see bilinear.go): eight
// pixels a step, all in 16-bit lanes — each sum split into its high and low
// byte so that every product fits a word — narrowed to bytes (VPACKUSWB) and
// put back in memory order (VPERMQ 0xD8). A ragged end is covered by one more
// step overlapping the last.
TEXT ·bilinearRowsU8x8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ top+8(FP), SI
	MOVQ bot+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ wy+32(FP), AX
	MOVQ $256, BX
	SUBQ AX, BX
	VMOVQ        AX, X8
	VPBROADCASTW X8, Y8
	VMOVQ        BX, X9
	VPBROADCASTW X9, Y9
	VPCMPEQW     Y10, Y10, Y10
	VPSRLW       $15, Y10, Y11
	VPSLLW       $7, Y11, Y11
	VPSRLW       $8, Y10, Y10
	MOVQ CX, R8
	ANDQ $7, R8
	SHRQ $3, CX

bvstep:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	BLENDROWS4(Y0, Y1, Y4, Y5)
	VMOVDQU 32(SI), Y2
	VMOVDQU 32(DX), Y3
	BLENDROWS4(Y2, Y3, Y6, Y7)
	VPACKUSWB Y2, Y0, Y0
	VPERMQ    $0xD8, Y0, Y0
	VMOVDQU   Y0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	DECQ CX
	JNE  bvstep

	TESTQ R8, R8
	JEQ   bvdone
	LEAQ  -64(SI)(R8*8), SI
	LEAQ  -64(DX)(R8*8), DX
	LEAQ  -32(DI)(R8*4), DI
	XORQ  R8, R8
	MOVQ  $1, CX
	JMP   bvstep

bvdone:
	VZEROUPPER
	RET

// lutIota is 0, 1, …, 15 as int32s: the pixel offsets of one lutRowU8 block.
DATA lutIota<>+0(SB)/4, $0
DATA lutIota<>+4(SB)/4, $1
DATA lutIota<>+8(SB)/4, $2
DATA lutIota<>+12(SB)/4, $3
DATA lutIota<>+16(SB)/4, $4
DATA lutIota<>+20(SB)/4, $5
DATA lutIota<>+24(SB)/4, $6
DATA lutIota<>+28(SB)/4, $7
DATA lutIota<>+32(SB)/4, $8
DATA lutIota<>+36(SB)/4, $9
DATA lutIota<>+40(SB)/4, $10
DATA lutIota<>+44(SB)/4, $11
DATA lutIota<>+48(SB)/4, $12
DATA lutIota<>+52(SB)/4, $13
DATA lutIota<>+56(SB)/4, $14
DATA lutIota<>+60(SB)/4, $15
GLOBL lutIota<>(SB), RODATA, $64

// lutSatK holds 0x70, 0x60, …, 0x10 in every byte, one 32-byte vector each:
// a byte whose high nibble (of three bits, bit 7 clear) is h, plus vector i
// with unsigned saturation, keeps bit 7 clear exactly when h <= i.
DATA lutSatK<>+0(SB)/8, $0x7070707070707070
DATA lutSatK<>+8(SB)/8, $0x7070707070707070
DATA lutSatK<>+16(SB)/8, $0x7070707070707070
DATA lutSatK<>+24(SB)/8, $0x7070707070707070
DATA lutSatK<>+32(SB)/8, $0x6060606060606060
DATA lutSatK<>+40(SB)/8, $0x6060606060606060
DATA lutSatK<>+48(SB)/8, $0x6060606060606060
DATA lutSatK<>+56(SB)/8, $0x6060606060606060
DATA lutSatK<>+64(SB)/8, $0x5050505050505050
DATA lutSatK<>+72(SB)/8, $0x5050505050505050
DATA lutSatK<>+80(SB)/8, $0x5050505050505050
DATA lutSatK<>+88(SB)/8, $0x5050505050505050
DATA lutSatK<>+96(SB)/8, $0x4040404040404040
DATA lutSatK<>+104(SB)/8, $0x4040404040404040
DATA lutSatK<>+112(SB)/8, $0x4040404040404040
DATA lutSatK<>+120(SB)/8, $0x4040404040404040
DATA lutSatK<>+128(SB)/8, $0x3030303030303030
DATA lutSatK<>+136(SB)/8, $0x3030303030303030
DATA lutSatK<>+144(SB)/8, $0x3030303030303030
DATA lutSatK<>+152(SB)/8, $0x3030303030303030
DATA lutSatK<>+160(SB)/8, $0x2020202020202020
DATA lutSatK<>+168(SB)/8, $0x2020202020202020
DATA lutSatK<>+176(SB)/8, $0x2020202020202020
DATA lutSatK<>+184(SB)/8, $0x2020202020202020
DATA lutSatK<>+192(SB)/8, $0x1010101010101010
DATA lutSatK<>+200(SB)/8, $0x1010101010101010
DATA lutSatK<>+208(SB)/8, $0x1010101010101010
DATA lutSatK<>+216(SB)/8, $0x1010101010101010
GLOBL lutSatK<>(SB), RODATA, $224

// LUTROUND is one round of the byte lookup over Y14 and Y15: slice i of the
// delta table at R8 (its 16 bytes at toff, in both lanes) indexed by each
// byte's low nibble (VPSHUFB), under a control that is the byte plus
// lutSatK's vector for i (koff) — bit 7 clear, so not zeroed, only when the
// byte's high nibble is at most i — XOR-ed into Y2 and Y3. Y11–Y13 are
// scratch.
#define LUTROUND(toff, koff) \
	VBROADCASTI128 toff(R8), Y11;               \
	VPADDUSB       lutSatK<>+koff(SB), Y14, Y12; \
	VPADDUSB       lutSatK<>+koff(SB), Y15, Y13; \
	VPSHUFB        Y12, Y11, Y12;               \
	VPSHUFB        Y13, Y11, Y13;               \
	VPXOR          Y12, Y2, Y2;                 \
	VPXOR          Y13, Y3, Y3

// LUTHALF XORs into Y2 and Y3 the delta-table slices 0…7 from toff on: a
// byte of Y14/Y15 with bit 7 clear and high nibble h is picked by the
// rounds h…7, so it collects slice h ^ … ^ slice 7 of the deltas, which is
// table slice h (see lutDeltas); a byte with bit 7 set is never picked.
// Round 7's control is the byte itself.
#define LUTHALF(toff) \
	VBROADCASTI128 toff+112(R8), Y11; \
	VPSHUFB        Y14, Y11, Y12;     \
	VPSHUFB        Y15, Y11, Y13;     \
	VPXOR          Y12, Y2, Y2;       \
	VPXOR          Y13, Y3, Y3;       \
	LUTROUND(toff, 0);                \
	LUTROUND(toff+16, 32);            \
	LUTROUND(toff+32, 64);            \
	LUTROUND(toff+48, 96);            \
	LUTROUND(toff+64, 128);           \
	LUTROUND(toff+80, 160);           \
	LUTROUND(toff+96, 192)

// LUTBLOCK leaves in Y2 and Y3 the 16 padded columns whose first is pixel
// AX (signed) of the row at SI: each pixel x with 0 <= x < w (Y8) as its
// four bytes through the table whose deltas are at R8, every other column
// the fill word (Y6). Only the image's pixels are loaded (VPMASKMOVD: a
// masked-off dword is never read), so a block may straddle either end of
// the row. The table's upper half takes a second LUTHALF on the bytes with
// bit 7 flipped (Y9 holds 0x80 bytes).
#define LUTBLOCK \
	VMOVQ          AX, X0;                   \
	VPBROADCASTD   X0, Y0;                   \
	VPADDD         lutIota<>+32(SB), Y0, Y1; \
	VPADDD         lutIota<>(SB), Y0, Y0;    \
	VPCMPGTD       Y0, Y8, Y4;               \
	VPSRAD         $31, Y0, Y0;              \
	VPANDN         Y4, Y0, Y4;               \
	VPCMPGTD       Y1, Y8, Y5;               \
	VPSRAD         $31, Y1, Y1;              \
	VPANDN         Y5, Y1, Y5;               \
	LEAQ           (SI)(AX*4), BX;           \
	VPMASKMOVD     (BX), Y4, Y14;            \
	VPMASKMOVD     32(BX), Y5, Y15;          \
	VPXOR          Y2, Y2, Y2;               \
	VPXOR          Y3, Y3, Y3;               \
	LUTHALF(0);                              \
	VPXOR          Y9, Y14, Y14;             \
	VPXOR          Y9, Y15, Y15;             \
	LUTHALF(128);                            \
	VPBLENDVB      Y4, Y2, Y6, Y2;           \
	VPBLENDVB      Y5, Y3, Y6, Y3

// func lutRowU8(dst, src *uint8, deltas *[256]uint8, words, stride, pad, w int64, fill uint32)
//
// One padded row of the stem's view (see stemView.setImage): `stride` (1 or
// 2) phase runs of `words` 32-bit words at dst, run p at dst + 4p·words,
// whose word i is padded column c = i·stride + p — pixel c − pad of the w
// pixels at src, its four bytes through the table whose lutDeltas are at
// deltas, when that pixel exists, else fill. 16 padded columns a block
// (LUTBLOCK), the stride-2 blocks split into their even and odd columns
// (VSHUFPS, then VPERMQ for memory order), one word run each; a ragged end
// is covered by one more block overlapping the last. stride·words must be at
// least 16.
TEXT ·lutRowU8(SB), NOSPLIT, $0-60
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         deltas+16(FP), R8
	MOVQ         words+24(FP), R9
	MOVQ         stride+32(FP), R10
	MOVQ         pad+40(FP), R11
	MOVQ         w+48(FP), AX
	VMOVQ        AX, X8
	VPBROADCASTD X8, Y8
	MOVL         fill+56(FP), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6
	MOVL         $0x80808080, AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9
	XORQ         R12, R12
	CMPQ         R10, $2
	JEQ          lr2
	LEAQ         -16(R9), R13

lr1:
	CMPQ R12, R13
	JLE  lr1go
	MOVQ R13, R12

lr1go:
	MOVQ    R12, AX
	SUBQ    R11, AX
	LUTBLOCK
	VMOVDQU Y2, (DI)(R12*4)
	VMOVDQU Y3, 32(DI)(R12*4)
	ADDQ    $16, R12
	CMPQ    R12, R9
	JLT     lr1
	VZEROUPPER
	RET

lr2:
	LEAQ (DI)(R9*4), R10
	LEAQ -8(R9), R13

lr2loop:
	CMPQ R12, R13
	JLE  lr2go
	MOVQ R13, R12

lr2go:
	LEAQ    (R12)(R12*1), AX
	SUBQ    R11, AX
	LUTBLOCK
	VSHUFPS $0x88, Y3, Y2, Y0
	VSHUFPS $0xDD, Y3, Y2, Y1
	VPERMQ  $0xD8, Y0, Y0
	VPERMQ  $0xD8, Y1, Y1
	VMOVDQU Y0, (DI)(R12*4)
	VMOVDQU Y1, (R10)(R12*4)
	ADDQ    $8, R12
	CMPQ    R12, R9
	JLT     lr2loop
	VZEROUPPER
	RET

// func copyTaps(dst *uint8, step int64, src *uint8, taps *int, quads, n int64)
//
// The stem's panel copy (see stemView.pack): for each of `quads` taps, the
// n 32-bit words at src + taps[q] to dst + q·step. A whole panel's tap of
// either quad tile width (64 or 128 bytes) is straight-line YMM moves;
// otherwise 32 bytes a step, a ragged end covered by one more step
// overlapping the last, and a tap shorter than 32 bytes by two overlapping
// 16- or 8-byte moves or one 4-byte move.
TEXT ·copyTaps(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ step+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ taps+24(FP), R8
	MOVQ quads+32(FP), CX
	MOVQ n+40(FP), R9
	SHLQ $2, R9
	CMPQ R9, $64
	JEQ  ct64
	CMPQ R9, $128
	JEQ  ct128
	CMPQ R9, $32
	JLT  ct16
	LEAQ -32(R9), R10

cttap:
	MOVQ (R8), AX
	ADDQ SI, AX
	XORQ BX, BX

ctstep:
	VMOVDQU (AX)(BX*1), Y0
	VMOVDQU Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R10
	JLE     ctstep
	CMPQ    BX, R9
	JEQ     ctnext
	VMOVDQU (AX)(R10*1), Y0
	VMOVDQU Y0, (DI)(R10*1)

ctnext:
	ADDQ $8, R8
	ADDQ DX, DI
	DECQ CX
	JNE  cttap
	VZEROUPPER
	RET

ct64:
	MOVQ    (R8), AX
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU 32(SI)(AX*1), Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $8, R8
	ADDQ    DX, DI
	DECQ    CX
	JNE     ct64
	VZEROUPPER
	RET

ct128:
	MOVQ    (R8), AX
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU 32(SI)(AX*1), Y1
	VMOVDQU 64(SI)(AX*1), Y2
	VMOVDQU 96(SI)(AX*1), Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $8, R8
	ADDQ    DX, DI
	DECQ    CX
	JNE     ct128
	VZEROUPPER
	RET

ct16:
	CMPQ R9, $16
	JLT  ct8
	LEAQ -16(R9), R10

ct16tap:
	MOVQ    (R8), AX
	ADDQ    SI, AX
	VMOVDQU (AX), X0
	VMOVDQU (AX)(R10*1), X1
	VMOVDQU X0, (DI)
	VMOVDQU X1, (DI)(R10*1)
	ADDQ    $8, R8
	ADDQ    DX, DI
	DECQ    CX
	JNE     ct16tap
	RET

ct8:
	CMPQ R9, $8
	JLT  ct4
	LEAQ -8(R9), R10

ct8tap:
	MOVQ (R8), AX
	ADDQ SI, AX
	MOVQ (AX), R11
	MOVQ (AX)(R10*1), R12
	MOVQ R11, (DI)
	MOVQ R12, (DI)(R10*1)
	ADDQ $8, R8
	ADDQ DX, DI
	DECQ CX
	JNE  ct8tap
	RET

ct4:
	MOVQ (R8), AX
	ADDQ SI, AX
	MOVL (AX), R11
	MOVL R11, (DI)
	ADDQ $8, R8
	ADDQ DX, DI
	DECQ CX
	JNE  ct4
	RET
