//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// The kernels walk dst in 16-float strips (matMul1x64 four at a time).
// For one strip they hold the strip of every row in YMM accumulators
// across the whole k loop; each k step loads b's floats at row k once and
// broadcasts a[r][k] per row.
// A term is VMULPS then VADDPS (never a fused multiply-add), so every
// output rounds exactly like the portable loop's out[j] += a*b.
//
// Registers: DI dst, SI a, DX b, CX k, R8 row stride of b and dst in
// bytes, R9 columns left, R10 row stride of a in bytes, BX strip offset
// in bytes, R12 b cursor, R13 a cursor, AX k countdown.

// func matMul4x16(dst, a, b *float32, k, n, n16 int)
TEXT ·matMul4x16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVQ n16+40(FP), R9
	SHLQ $2, R8
	LEAQ (CX*4), R10
	LEAQ (R10)(R10*2), R11 // three rows of a
	XORQ BX, BX

strip4:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ (DX)(BX*1), R12
	MOVQ SI, R13
	MOVQ CX, AX

k4:
	VMOVUPS (R12), Y8
	VMOVUPS 32(R12), Y9

	VBROADCASTSS (R13), Y10
	VMULPS Y8, Y10, Y11
	VMULPS Y9, Y10, Y12
	VADDPS Y11, Y0, Y0
	VADDPS Y12, Y1, Y1

	VBROADCASTSS (R13)(R10*1), Y10
	VMULPS Y8, Y10, Y11
	VMULPS Y9, Y10, Y12
	VADDPS Y11, Y2, Y2
	VADDPS Y12, Y3, Y3

	VBROADCASTSS (R13)(R10*2), Y10
	VMULPS Y8, Y10, Y11
	VMULPS Y9, Y10, Y12
	VADDPS Y11, Y4, Y4
	VADDPS Y12, Y5, Y5

	VBROADCASTSS (R13)(R11*1), Y10
	VMULPS Y8, Y10, Y11
	VMULPS Y9, Y10, Y12
	VADDPS Y11, Y6, Y6
	VADDPS Y12, Y7, Y7

	ADDQ $4, R13
	ADDQ R8, R12
	DECQ AX
	JNZ  k4

	LEAQ    (DI)(BX*1), R12
	VMOVUPS Y0, (R12)
	VMOVUPS Y1, 32(R12)
	ADDQ    R8, R12
	VMOVUPS Y2, (R12)
	VMOVUPS Y3, 32(R12)
	ADDQ    R8, R12
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	ADDQ    R8, R12
	VMOVUPS Y6, (R12)
	VMOVUPS Y7, 32(R12)

	ADDQ $64, BX
	SUBQ $16, R9
	JNZ  strip4
	VZEROUPPER
	RET

// func matMul1x16(dst, a, b *float32, k, n, n16 int)
TEXT ·matMul1x16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVQ n16+40(FP), R9
	SHLQ $2, R8
	XORQ BX, BX

strip1:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	LEAQ   (DX)(BX*1), R12
	MOVQ   SI, R13
	MOVQ   CX, AX

k1:
	VBROADCASTSS (R13), Y10
	VMULPS       (R12), Y10, Y11
	VMULPS       32(R12), Y10, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1
	ADDQ         $4, R13
	ADDQ         R8, R12
	DECQ         AX
	JNZ          k1

	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)

	ADDQ $64, BX
	SUBQ $16, R9
	JNZ  strip1
	VZEROUPPER
	RET

// matMul1x64 is matMul1x16 with four strips in flight: eight accumulators
// cover 64 columns, so the VADDPS chains of one row overlap instead of
// waiting on each other. Each column still sums over ascending k from +0.
//
// func matMul1x64(dst, a, b *float32, k, n, n64 int)
TEXT ·matMul1x64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVQ n64+40(FP), R9
	SHLQ $2, R8
	XORQ BX, BX

strip64:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ   (DX)(BX*1), R12
	MOVQ   SI, R13
	MOVQ   CX, AX

k64:
	VBROADCASTSS (R13), Y10
	VMULPS       (R12), Y10, Y11
	VMULPS       32(R12), Y10, Y12
	VMULPS       64(R12), Y10, Y13
	VMULPS       96(R12), Y10, Y14
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1
	VADDPS       Y13, Y2, Y2
	VADDPS       Y14, Y3, Y3
	VMULPS       128(R12), Y10, Y11
	VMULPS       160(R12), Y10, Y12
	VMULPS       192(R12), Y10, Y13
	VMULPS       224(R12), Y10, Y14
	VADDPS       Y11, Y4, Y4
	VADDPS       Y12, Y5, Y5
	VADDPS       Y13, Y6, Y6
	VADDPS       Y14, Y7, Y7
	ADDQ         $4, R13
	ADDQ         R8, R12
	DECQ         AX
	JNZ          k64

	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	VMOVUPS Y4, 128(DI)(BX*1)
	VMOVUPS Y5, 160(DI)(BX*1)
	VMOVUPS Y6, 192(DI)(BX*1)
	VMOVUPS Y7, 224(DI)(BX*1)

	ADDQ $256, BX
	SUBQ $64, R9
	JNZ  strip64
	VZEROUPPER
	RET
