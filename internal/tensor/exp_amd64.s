//go:build amd64 && !purego

#include "textflag.h"

// Four float64 lanes per YMM register replay, operation for operation, what
// the scalar code computes with math.Exp (math.archExp's FMA branch,
// Shibata's ISC'10 method) and math.tanh, so every lane rounds exactly as
// the scalar call would. Constants are stored four times over so that each
// can be an arithmetic instruction's memory operand.

#define K4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA, $32

#define I4(name, v) \
	DATA name<>+0(SB)/4, v; \
	DATA name<>+4(SB)/4, v; \
	DATA name<>+8(SB)/4, v; \
	DATA name<>+12(SB)/4, v; \
	GLOBL name<>(SB), RODATA, $16

// math.archExp
K4(log2e, $1.4426950408889634073599246810018920)
K4(ln2u, $0.69314718055966295651160180568695068359375)
K4(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
K4(sixteenth, $0.0625)
K4(exp8, $2.4801587301587301587e-5)
K4(exp7, $1.9841269841269841270e-4)
K4(exp6, $1.3888888888888888889e-3)
K4(exp5, $8.3333333333333333333e-3)
K4(exp4, $4.1666666666666666667e-2)
K4(exp3, $1.6666666666666666667e-1)
K4(half, $0.5)
K4(one, $1.0)
K4(two, $2.0)
K4(overflow, $7.09782712893384e+02)
K4(posinf, $0x7FF0000000000000)
I4(bias, $0x3FF)
I4(izero, $0)
I4(maxbiased, $0x7FE)

// math.tanh
K4(halfmaxlog, $44.0148459655565271479940) // 0.5 * MAXLOG, exactly
K4(tanhband, $0.625)
K4(tanhp0, $-9.64399179425052238628e-1)
K4(tanhp1, $-9.92877231001918586564e1)
K4(tanhp2, $-1.61468768441708447952e3)
K4(tanhq0, $1.12811678491632931402e2)
K4(tanhq1, $2.23548839060100448583e3)
K4(tanhq2, $4.84406305325125486048e3)
K4(absmask, $0x7FFFFFFFFFFFFFFF)
K4(signmask, $0x8000000000000000)

// geluScalar
K4(geluc0, $0.7978845608028654)
K4(geluc1, $0.044715)

// VCMPPD predicates.
#define EQ_OQ $0x00
#define UNORD_Q $0x03
#define GE_OQ $0x1D
#define GT_OQ $0x1E

// EXPCORE sets R = exp(R) for lanes whose biased exponent n+1023 lies in
// [1, 2046]; other lanes hold garbage the caller must blend away. On exit
// the XMM register NX holds n+1023 as four int32s. P and T (YMM
// registers) are clobbered.
#define EXPCORE(R, P, T, NX) \
	VMULPD       log2e<>(SB), R, T;  \
	VCVTPD2DQY   T, NX;              \
	VCVTDQ2PD    NX, T;              \
	VFNMADD231PD ln2u<>(SB), T, R;   \
	VFNMADD231PD ln2l<>(SB), T, R;   \
	VMULPD       sixteenth<>(SB), R, R; \
	VMOVUPD      exp8<>(SB), P;      \
	VFMADD213PD  exp7<>(SB), R, P;   \
	VFMADD213PD  exp6<>(SB), R, P;   \
	VFMADD213PD  exp5<>(SB), R, P;   \
	VFMADD213PD  exp4<>(SB), R, P;   \
	VFMADD213PD  exp3<>(SB), R, P;   \
	VFMADD213PD  half<>(SB), R, P;   \
	VFMADD213PD  one<>(SB), R, P;    \
	VMULPD       P, R, R;            \
	VADDPD       two<>(SB), R, P;    \
	VMULPD       P, R, R;            \
	VADDPD       two<>(SB), R, P;    \
	VMULPD       P, R, R;            \
	VADDPD       two<>(SB), R, P;    \
	VMULPD       P, R, R;            \
	VADDPD       two<>(SB), R, P;    \
	VFMADD213PD  one<>(SB), P, R;    \
	VPADDD       bias<>(SB), NX, NX; \
	VPMOVSXDQ    NX, T;              \
	VPSLLQ       $52, T, T;          \
	VMULPD       T, R, R

// EXPMASK finishes EXPCORE as math.archExp does, given the argument in X:
// +0 where n+1023 <= 0 (math.Exp returns a denormal or +0 there, which
// rounds to +0 in float32; the kernels only ever narrow it), +Inf where
// n+1023 >= 2047 or x > 709.78, and x itself where x is NaN. −Inf lands
// in the first case, +Inf in the second.
#define EXPMASK(X, R, T, NX, M, MX) \
	VPCMPGTD     izero<>(SB), NX, MX;     \
	VPMOVSXDQ    MX, M;                   \
	VANDPD       M, R, R;                 \
	VPCMPGTD     maxbiased<>(SB), NX, MX; \
	VPMOVSXDQ    MX, M;                   \
	VCMPPD       GT_OQ, overflow<>(SB), X, T; \
	VORPD        T, M, M;                 \
	VBLENDVPD    M, posinf<>(SB), R, R;   \
	VCMPPD       UNORD_Q, X, X, M;        \
	VBLENDVPD    M, X, R, R

// TANH sets T = math.tanh(U), blending its three branches by |u|:
// ±1 where |u| > MAXLOG/2, ±(1 − 2/(exp(2|u|)+1)) where |u| >= 0.625, u
// where u == 0 (keeping −0), and the rational polynomial elsewhere,
// NaN included. Z, R, P, NX and S are clobbered.
// 2|u| <= MAXLOG in the exp branch, so EXPCORE needs no EXPMASK there.
#define TANH(U, Z, R, P, T, NX, S) \
	VANDPD       absmask<>(SB), U, Z;     \
	VADDPD       Z, Z, R;                 \
	EXPCORE(R, P, T, NX);                 \
	VADDPD       one<>(SB), R, R;         \
	VMOVUPD      two<>(SB), P;            \
	VDIVPD       R, P, P;                 \
	VMOVUPD      one<>(SB), R;            \
	VSUBPD       P, R, R;                 \
	VCMPPD       GT_OQ, halfmaxlog<>(SB), Z, T; \
	VBLENDVPD    T, one<>(SB), R, R;      \
	VANDPD       signmask<>(SB), U, T;    \
	VORPD        T, R, R;                 \
	VMULPD       U, U, S;                 \
	VMULPD       tanhp0<>(SB), S, P;      \
	VADDPD       tanhp1<>(SB), P, P;      \
	VMULPD       S, P, P;                 \
	VADDPD       tanhp2<>(SB), P, P;      \
	VMULPD       S, U, T;                 \
	VMULPD       P, T, T;                 \
	VADDPD       tanhq0<>(SB), S, P;      \
	VMULPD       S, P, P;                 \
	VADDPD       tanhq1<>(SB), P, P;      \
	VMULPD       S, P, P;                 \
	VADDPD       tanhq2<>(SB), P, P;      \
	VDIVPD       P, T, T;                 \
	VADDPD       T, U, T;                 \
	VXORPD       S, S, S;                 \
	VCMPPD       EQ_OQ, S, U, S;          \
	VBLENDVPD    S, U, T, T;              \
	VCMPPD       GE_OQ, tanhband<>(SB), Z, S; \
	VBLENDVPD    S, R, T, T

// GELU4 sets the four float32s x at off(DI) to geluScalar(x):
// ((0.5·x)·(1 + tanh(C0·(x + ((C1·x)·x)·x)))), narrowed to float32.
// Registers: X x, U u, then TANH's.
#define GELU4(off, X, U, Z, R, P, T, NX, S) \
	VCVTPS2PD    off(DI), X;              \
	VMULPD       geluc1<>(SB), X, U;      \
	VMULPD       X, U, U;                 \
	VMULPD       X, U, U;                 \
	VADDPD       U, X, U;                 \
	VMULPD       geluc0<>(SB), U, U;      \
	TANH(U, Z, R, P, T, NX, S);           \
	VADDPD       one<>(SB), T, T;         \
	VMULPD       half<>(SB), X, X;        \
	VMULPD       T, X, X;                 \
	VCVTPD2PSY   X, NX;                   \
	VMOVUPS      NX, off(DI)

// EXP4 sets the four float32s v at off(DI) to float32(exp(float64(v -
// shift))), shift broadcast in X15, and adds them in index order to the
// sum in X14, each as e + sum with e the first operand: the scalar loop's
// order, which decides which NaN a sum of two NaNs returns. Registers: X
// the widened argument (XX its XMM name), R the result, M a lane mask (MX
// its XMM name), NX the XMM register EXPCORE leaves n+1023 in.
#define EXP4(off, X, XX, R, P, T, NX, M, MX) \
	VMOVUPS      off(DI), XX;             \
	VSUBPS       X15, XX, XX;             \
	VCVTPS2PD    XX, X;                   \
	VMOVAPD      X, R;                    \
	EXPCORE(R, P, T, NX);                 \
	EXPMASK(X, R, T, NX, M, MX);          \
	VCVTPD2PSY   R, NX;                   \
	VMOVUPS      NX, off(DI);             \
	VADDSS       X14, NX, X14;            \
	VMOVSHDUP    NX, MX;                  \
	VADDSS       X14, MX, X14;            \
	VMOVHLPS     NX, NX, MX;              \
	VADDSS       X14, MX, X14;            \
	VPERMILPS    $3, NX, MX;              \
	VADDSS       X14, MX, X14

// func geluAVX(x *float32, n int)
TEXT ·geluAVX(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX

geluLoop:
	CMPQ CX, $8
	JLT  geluTail
	GELU4(0, Y0, Y1, Y2, Y3, Y4, Y5, X6, Y7)
	GELU4(16, Y8, Y9, Y10, Y11, Y12, Y13, X14, Y15)
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  geluLoop

geluTail:
	TESTQ CX, CX
	JZ    geluDone
	GELU4(0, Y0, Y1, Y2, Y3, Y4, Y5, X6, Y7)

geluDone:
	VZEROUPPER
	RET

// func expShiftAVX(x *float32, n int, shift float32) (sum float32)
TEXT ·expShiftAVX(SB), NOSPLIT, $0-28
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS shift+16(FP), X15
	VXORPS       X14, X14, X14

expLoop:
	CMPQ CX, $8
	JLT  expTail
	EXP4(0, Y0, X0, Y1, Y2, Y3, X4, Y5, X5)
	EXP4(16, Y6, X6, Y7, Y8, Y9, X10, Y11, X11)
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  expLoop

expTail:
	TESTQ CX, CX
	JZ    expDone
	EXP4(0, Y0, X0, Y1, Y2, Y3, X4, Y5, X5)

expDone:
	VMOVSS     X14, sum+24(FP)
	VZEROUPPER
	RET

// func exp4(x *[4]float64)
TEXT ·exp4(SB), NOSPLIT, $0-8
	MOVQ    x+0(FP), DI
	VMOVUPD (DI), Y0
	VMOVAPD Y0, Y1
	EXPCORE(Y1, Y2, Y3, X4)
	EXPMASK(Y0, Y1, Y3, X4, Y5, X5)
	VMOVUPD Y1, (DI)
	VZEROUPPER
	RET

// func tanh4(x *[4]float64)
TEXT ·tanh4(SB), NOSPLIT, $0-8
	MOVQ    x+0(FP), DI
	VMOVUPD (DI), Y0
	TANH(Y0, Y1, Y2, Y3, Y4, X5, Y6)
	VMOVUPD Y4, (DI)
	VZEROUPPER
	RET
