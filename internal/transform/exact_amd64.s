#include "textflag.h"

// The exact transform y = F⁻¹(Φ(x)) for dist.Normal and dist.Lognormal
// targets, four lanes per YMM register. Every scalar operation of
// T.Apply's path (math.Erfc in erf.go, dist.stdNormalQuantile, math.Exp's
// amd64 fused branch in exp_amd64.s, math.Log's amd64 code in
// log_amd64.s) becomes its packed twin in the same order: VMULPD, VADDPD,
// VSUBPD, VDIVPD (a division stays a division), VSQRTPD, and VFMADD/VFNMADD
// only where exp_amd64.s fuses. Each of these rounds every lane as its
// scalar form rounds, so each lane carries the scalar bits. Where the
// scalar code branches on a lane's value, the kernels compute every branch
// some lane of the register takes and blend by the branch's condition;
// lanes the scalar code would send down a path not ported here come out
// NaN, and T.ApplyTo recomputes them with T.Apply.

// Rows of exactK (exact_amd64.go), 32 bytes each.
#define K(i) ·exactK+(32*(i))(SB)
#define K_SIGN K(0)
#define K_ABS K(1)
#define K_NAN K(2)
#define K_HALF K(3)
#define K_ONE K(4)
#define K_TWO K(5)
#define K_SQRT2 K(6)
#define K_ERFC1 K(7)
#define K_ERFC2 K(8)
#define K_ERFC3 K(9)
#define K_TINY K(10)
#define K_QUARTER K(11)
#define K_HIMASK K(12)
#define K_C05625 K(13)
#define K_ONEPERX K(14)
#define K_ONEMERX K(15)
#define K_PP(i) K(16+(i))
#define K_QQ(i) K(20+(i))
#define K_PA(i) K(26+(i))
#define K_QA(i) K(32+(i))
#define K_RA(i) K(39+(i))
#define K_SA(i) K(46+(i))
#define K_A(i) K(54+(i))
#define K_B(i) K(60+(i))
#define K_C(i) K(65+(i))
#define K_D(i) K(71+(i))
#define K_PLOW K(76)
#define K_PHIGH K(77)
#define K_MINUSTWO K(78)
#define K_SQRT2PI K(79)

// Four copies of each constant, one per lane. The exp constants are
// $GOROOT/src/math/exp_amd64.s's, the log constants log_amd64.s's,
// written with the same literals.
#define LANES(name, val) \
	DATA name<>+0(SB)/8, val; \
	DATA name<>+8(SB)/8, val; \
	DATA name<>+16(SB)/8, val; \
	DATA name<>+24(SB)/8, val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

LANES(expOverflow, $7.09782712893384e+02)
LANES(expLog2e, $1.4426950408889634073599246810018920)
LANES(expLn2U, $0.69314718055966295651160180568695068359375)
LANES(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
LANES(expSixteenth, $0.0625)
LANES(expHalf, $0.5)
LANES(expOne, $1.0)
LANES(expTwo, $2.0)
LANES(expT3, $1.6666666666666666667e-1)
LANES(expT4, $4.1666666666666666667e-2)
LANES(expT5, $8.3333333333333333333e-3)
LANES(expT6, $1.3888888888888888889e-3)
LANES(expT7, $1.9841269841269841270e-4)
LANES(expT8, $2.4801587301587301587e-5)
LANES(expBias, $0x000003FF000003FF)    // int32 lanes of 0x3FF
LANES(expMaxBiased, $0x000007FE000007FE) // int32 lanes of 0x7FE

LANES(logMantMask, $0x000FFFFFFFFFFFFF)
LANES(logExpMagic, $0x4330000000000000) // 2^52: e | bits(2^52) reads 2^52 + e
LANES(logExpBias, $0x43300000000003FE)  // 2^52 + 1022
LANES(logHSqrt2, $7.07106781186547524401e-01)
LANES(logLn2Hi, $6.93147180369123816490e-01)
LANES(logLn2Lo, $1.90821492927058770002e-10)
LANES(logL1, $6.666666666666735130e-01)
LANES(logL2, $3.999999999940941908e-01)
LANES(logL3, $2.857142874366239149e-01)
LANES(logL4, $2.222219843214978396e-01)
LANES(logL5, $1.818357216161805012e-01)
LANES(logL6, $1.531383769920937332e-01)
LANES(logL7, $1.479819860511658591e-01)

// EXPLANES sets x to math.Exp(x) lane by lane: exp_amd64.s's avxfma
// branch with each SD instruction in its PD form (VCVTPD2DQ and VCVTDQ2PD
// for CVTSD2SL and CVTSL2SD; both round as MXCSR says, as the scalar forms
// do), then its ldexp as an add to the exponent field. A lane exp_amd64.s
// sends elsewhere (NaN, ±Inf, x > Overflow, a biased exponent outside
// [1, 0x7FE]) comes out NaN. Clobbers t1, t2, t3 and m; t1x, t2x and t3x
// are the XMM halves of t1, t2 and t3.
#define EXPLANES(x, t1, t1x, t2, t2x, t3, t3x, m) \
	VCMPPD       $2, expOverflow<>(SB), x, m; \
	VMULPD       expLog2e<>(SB), x, t1; \
	VCVTPD2DQY   t1, t2x; \
	VCVTDQ2PD    t2x, t1; \
	VFNMADD231PD expLn2U<>(SB), t1, x; \
	VFNMADD231PD expLn2L<>(SB), t1, x; \
	VMULPD       expSixteenth<>(SB), x, x; \
	VMOVUPD      expT8<>(SB), t1; \
	VFMADD213PD  expT7<>(SB), x, t1; \
	VFMADD213PD  expT6<>(SB), x, t1; \
	VFMADD213PD  expT5<>(SB), x, t1; \
	VFMADD213PD  expT4<>(SB), x, t1; \
	VFMADD213PD  expT3<>(SB), x, t1; \
	VFMADD213PD  expHalf<>(SB), x, t1; \
	VFMADD213PD  expOne<>(SB), x, t1; \
	VMULPD       t1, x, x; \
	VADDPD       expTwo<>(SB), x, t1; \
	VMULPD       t1, x, x; \
	VADDPD       expTwo<>(SB), x, t1; \
	VMULPD       t1, x, x; \
	VADDPD       expTwo<>(SB), x, t1; \
	VMULPD       t1, x, x; \
	VADDPD       expTwo<>(SB), x, t1; \
	VFMADD213PD  expOne<>(SB), t1, x; \
	VPADDD       expBias<>(SB), t2x, t2x; \
	VPXOR        t3x, t3x, t3x; \
	VPCMPGTD     t3x, t2x, t3x; \
	VPCMPGTD     expMaxBiased<>(SB), t2x, t1x; \
	VPANDN       t3x, t1x, t3x; \
	VPMOVSXDQ    t3x, t3; \
	VANDPD       t3, m, m; \
	VPMOVZXDQ    t2x, t2; \
	VPSLLQ       $52, t2, t2; \
	VMULPD       t2, x, x; \
	VMOVUPD      K_NAN, t1; \
	VBLENDVPD    m, x, t1, x

// func phiAVX2(dst, src []float64)
//
// Φ(v) = 0.5·erfc(t), t = −v/√2, in two passes over the lanes. The first
// computes erfc's two polynomial ranges of a = |t| (below 0.84375, below
// 1.25) where some lane of the register falls in them, blends them by
// range and stores NaN elsewhere; the second revisits the registers with
// a lane in [1.25, 1/0.35) and blends that range's two-exp form in. Each
// pass is a short loop, so the processor overlaps several iterations'
// dependency chains.
TEXT ·phiAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	JZ   phiDone
	MOVQ CX, R8

phiLoop:
	VMOVUPD   (SI), Y0
	VXORPD    K_SIGN, Y0, Y0
	VDIVPD    K_SQRT2, Y0, Y0 // t
	VANDPD    K_ABS, Y0, Y1   // a
	VXORPD    Y15, Y15, Y15
	VCMPPD    $1, Y15, Y0, Y15 // sign: t < 0
	VCMPPD    $1, K_ERFC1, Y1, Y2
	VCMPPD    $1, K_ERFC2, Y1, Y3
	VMOVUPD   K_NAN, Y5 // erfc, NaN outside the two ranges
	VMOVMSKPD Y2, AX
	VMOVMSKPD Y3, BX

	XORQ AX, BX // lanes in [0.84375, 1.25)
	JZ   phiRange1

	// s := a − 1; erfc = 1 − erx − P/Q or 1 + erx + P/Q
	VSUBPD    K_ONE, Y1, Y6 // s
	VMULPD    K_PA(6), Y6, Y7
	VADDPD    K_PA(5), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_PA(4), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_PA(3), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_PA(2), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_PA(1), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_PA(0), Y7, Y7 // P
	VMULPD    K_QA(6), Y6, Y8
	VADDPD    K_QA(5), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_QA(4), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_QA(3), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_QA(2), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_QA(1), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_ONE, Y8, Y8 // Q
	VDIVPD    Y8, Y7, Y7    // P/Q
	VADDPD    K_ONEPERX, Y7, Y8
	VMOVUPD   K_ONEMERX, Y9
	VSUBPD    Y7, Y9, Y9
	VBLENDVPD Y15, Y8, Y9, Y9
	VBLENDVPD Y3, Y9, Y5, Y5

phiRange1:
	TESTQ AX, AX // lanes below 0.84375
	JZ    phiStore

	// z := a*a; y := r/s; temp := a (a < 2^-56), a + a*y (a < 1/4) or
	// 0.5 + (a*y + (a − 0.5)); erfc = 1 − temp or 1 + temp
	VMULPD    Y1, Y1, Y6 // z
	VMULPD    K_PP(4), Y6, Y7
	VADDPD    K_PP(3), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_PP(2), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_PP(1), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_PP(0), Y7, Y7 // r
	VMULPD    K_QQ(5), Y6, Y8
	VADDPD    K_QQ(4), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_QQ(3), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_QQ(2), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_QQ(1), Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    K_ONE, Y8, Y8 // s
	VDIVPD    Y8, Y7, Y7    // y
	VMULPD    Y7, Y1, Y7    // a*y
	VADDPD    Y7, Y1, Y8    // a + a*y
	VSUBPD    K_HALF, Y1, Y9
	VADDPD    Y9, Y7, Y9
	VADDPD    K_HALF, Y9, Y9 // 0.5 + (a*y + (a − 0.5))
	VCMPPD    $1, K_QUARTER, Y1, Y10
	VBLENDVPD Y10, Y8, Y9, Y9
	VCMPPD    $1, K_TINY, Y1, Y10
	VBLENDVPD Y10, Y1, Y9, Y9 // temp
	VADDPD    K_ONE, Y9, Y10
	VMOVUPD   K_ONE, Y11
	VSUBPD    Y9, Y11, Y11
	VBLENDVPD Y15, Y10, Y11, Y11
	VBLENDVPD Y2, Y11, Y5, Y5

phiStore:
	VMULPD  K_HALF, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     phiLoop

	// Second pass, over the same registers.
	MOVQ R8, CX
	SHLQ $5, R8
	SUBQ R8, SI
	SUBQ R8, DI

phi3Loop:
	VMOVUPD   (SI), Y0
	VXORPD    K_SIGN, Y0, Y0
	VDIVPD    K_SQRT2, Y0, Y0 // t
	VANDPD    K_ABS, Y0, Y1   // a
	VCMPPD    $1, K_ERFC2, Y1, Y3
	VCMPPD    $1, K_ERFC3, Y1, Y4
	VXORPD    Y3, Y4, Y4 // lanes in [1.25, 1/0.35)
	VMOVMSKPD Y4, AX
	TESTQ     AX, AX
	JZ        phi3Next
	VXORPD    Y15, Y15, Y15
	VCMPPD    $1, Y15, Y0, Y15 // sign: t < 0

	// s := 1/(a*a); R, S in s; z := a rounded down to 20 bits;
	// r := Exp(−z*z−0.5625) * Exp((z−a)*(z+a)+R/S); erfc = r/a or 2 − r/a
	VMULPD  Y1, Y1, Y6
	VMOVUPD K_ONE, Y7
	VDIVPD  Y6, Y7, Y6 // s
	VMULPD  K_RA(7), Y6, Y7
	VADDPD  K_RA(6), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  K_RA(5), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  K_RA(4), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  K_RA(3), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  K_RA(2), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  K_RA(1), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  K_RA(0), Y7, Y7 // R
	VMULPD  K_SA(8), Y6, Y8
	VADDPD  K_SA(7), Y8, Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  K_SA(6), Y8, Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  K_SA(5), Y8, Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  K_SA(4), Y8, Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  K_SA(3), Y8, Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  K_SA(2), Y8, Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  K_SA(1), Y8, Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  K_ONE, Y8, Y8 // S
	VDIVPD  Y8, Y7, Y7    // R/S
	VANDPD  K_HIMASK, Y1, Y8 // z
	VXORPD  K_SIGN, Y8, Y9
	VMULPD  Y8, Y9, Y9
	VSUBPD  K_C05625, Y9, Y9 // −z*z − 0.5625
	VSUBPD  Y1, Y8, Y10
	VADDPD  Y1, Y8, Y11
	VMULPD  Y11, Y10, Y10
	VADDPD  Y7, Y10, Y10 // (z−a)*(z+a) + R/S
	EXPLANES(Y9, Y6, X6, Y7, X7, Y8, X8, Y11)
	EXPLANES(Y10, Y6, X6, Y7, X7, Y8, X8, Y11)
	VMULPD    Y10, Y9, Y9
	VDIVPD    Y1, Y9, Y9 // r/a
	VMOVUPD   K_TWO, Y10
	VSUBPD    Y9, Y10, Y10
	VBLENDVPD Y15, Y10, Y9, Y9
	VMULPD    K_HALF, Y9, Y9
	VMOVUPD   (DI), Y10
	VBLENDVPD Y4, Y9, Y10, Y9
	VMOVUPD   Y9, (DI)

phi3Next:
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  phi3Loop

phiDone:
	VZEROUPPER
	RET

// func acklamAVX2(dst, p []float64)
//
// The central rational in r = (p−0.5)² for every lane; where some lane
// lies below pLow or above pHigh, the tail rational in
// q = √(−2·log(p or 1−p)), with log_amd64.s's archLog on four lanes as
// internal/rng's polar kernel runs it (its special cases never arise:
// both arguments are normal and in (0, 1) wherever the tail is kept).
TEXT ·acklamAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ p_base+24(FP), SI
	MOVQ p_len+32(FP), CX
	SHRQ $2, CX
	JZ   acklamDone

acklamLoop:
	VMOVUPD (SI), Y0        // p
	VSUBPD  K_HALF, Y0, Y1  // q
	VMULPD  Y1, Y1, Y2      // r
	VMULPD  K_A(1), Y2, Y3
	VADDPD  K_A(2), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  K_A(3), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  K_A(4), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  K_A(5), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  K_A(6), Y3, Y3
	VMULPD  Y1, Y3, Y3
	VMULPD  K_B(1), Y2, Y4
	VADDPD  K_B(2), Y4, Y4
	VMULPD  Y2, Y4, Y4
	VADDPD  K_B(3), Y4, Y4
	VMULPD  Y2, Y4, Y4
	VADDPD  K_B(4), Y4, Y4
	VMULPD  Y2, Y4, Y4
	VADDPD  K_B(5), Y4, Y4
	VMULPD  Y2, Y4, Y4
	VADDPD  K_ONE, Y4, Y4
	VDIVPD  Y4, Y3, Y5 // central estimate

	VCMPPD    $1, K_PLOW, Y0, Y6   // p < pLow
	VCMPPD    $14, K_PHIGH, Y0, Y7 // p > pHigh
	VORPD     Y7, Y6, Y8
	VMOVMSKPD Y8, AX
	TESTQ     AX, AX
	JZ        acklamStore

	VMOVUPD   K_ONE, Y9
	VSUBPD    Y0, Y9, Y9
	VBLENDVPD Y7, Y9, Y0, Y9 // p or 1−p

	// lg := log(Y9), as in internal/rng's polarAVX2
	VANDPD    logMantMask<>(SB), Y9, Y10
	VORPD     K_HALF, Y10, Y10 // f1
	VPSRLQ    $52, Y9, Y11
	VPOR      logExpMagic<>(SB), Y11, Y11
	VSUBPD    logExpBias<>(SB), Y11, Y11 // k, exact
	VMOVUPD   logHSqrt2<>(SB), Y12
	VCMPPD    $5, Y10, Y12, Y12
	VANDPD    K_ONE, Y12, Y12
	VSUBPD    Y12, Y11, Y11 // k
	VADDPD    K_ONE, Y12, Y12
	VMULPD    Y12, Y10, Y10
	VSUBPD    K_ONE, Y10, Y10 // f
	VADDPD    K_TWO, Y10, Y12
	VDIVPD    Y12, Y10, Y12 // sd
	VMULPD    Y12, Y12, Y13 // s2
	VMULPD    Y13, Y13, Y14 // s4
	VMULPD    logL7<>(SB), Y14, Y15
	VADDPD    logL5<>(SB), Y15, Y15
	VMULPD    Y14, Y15, Y15
	VADDPD    logL3<>(SB), Y15, Y15
	VMULPD    Y14, Y15, Y15
	VADDPD    logL1<>(SB), Y15, Y15
	VMULPD    Y15, Y13, Y13 // t1
	VMULPD    logL6<>(SB), Y14, Y15
	VADDPD    logL4<>(SB), Y15, Y15
	VMULPD    Y14, Y15, Y15
	VADDPD    logL2<>(SB), Y15, Y15
	VMULPD    Y15, Y14, Y14 // t2
	VADDPD    Y14, Y13, Y13 // R
	VMULPD    K_HALF, Y10, Y15
	VMULPD    Y10, Y15, Y15 // hfsq
	VADDPD    Y15, Y13, Y13
	VMULPD    Y13, Y12, Y12
	VMULPD    logLn2Lo<>(SB), Y11, Y13
	VADDPD    Y13, Y12, Y12
	VSUBPD    Y12, Y15, Y15
	VSUBPD    Y10, Y15, Y15
	VMULPD    logLn2Hi<>(SB), Y11, Y11
	VSUBPD    Y15, Y11, Y11 // lg

	VMULPD  K_MINUSTWO, Y11, Y11
	VSQRTPD Y11, Y11 // q
	VMULPD  K_C(1), Y11, Y12
	VADDPD  K_C(2), Y12, Y12
	VMULPD  Y11, Y12, Y12
	VADDPD  K_C(3), Y12, Y12
	VMULPD  Y11, Y12, Y12
	VADDPD  K_C(4), Y12, Y12
	VMULPD  Y11, Y12, Y12
	VADDPD  K_C(5), Y12, Y12
	VMULPD  Y11, Y12, Y12
	VADDPD  K_C(6), Y12, Y12
	VMULPD  K_D(1), Y11, Y13
	VADDPD  K_D(2), Y13, Y13
	VMULPD  Y11, Y13, Y13
	VADDPD  K_D(3), Y13, Y13
	VMULPD  Y11, Y13, Y13
	VADDPD  K_D(4), Y13, Y13
	VMULPD  Y11, Y13, Y13
	VADDPD  K_ONE, Y13, Y13
	VDIVPD  Y13, Y12, Y12
	VANDPD  K_SIGN, Y7, Y13
	VXORPD  Y13, Y12, Y12 // negated above pHigh
	VBLENDVPD Y8, Y12, Y5, Y5

acklamStore:
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     acklamLoop

acklamDone:
	VZEROUPPER
	RET

// func halleyAVX2(dst, q, e, p []float64, mu, sigma float64)
//
// u := (Φ(x) − p)·√(2π)·exp(x*x/2); x −= u/(1 + x*u/2); y := mu + sigma·x.
TEXT ·halleyAVX2(SB), NOSPLIT, $0-112
	MOVQ         dst_base+0(FP), DI
	MOVQ         q_base+24(FP), SI
	MOVQ         q_len+32(FP), CX
	MOVQ         e_base+48(FP), DX
	MOVQ         p_base+72(FP), BX
	VBROADCASTSD mu+96(FP), Y14
	VBROADCASTSD sigma+104(FP), Y13
	SHRQ         $2, CX
	JZ           halleyDone

halleyLoop:
	VMOVUPD (SI), Y0 // x
	VMOVUPD (DX), Y1
	VSUBPD  (BX), Y1, Y1
	VMULPD  K_SQRT2PI, Y1, Y1
	VMULPD  Y0, Y0, Y2
	VMULPD  K_HALF, Y2, Y2
	EXPLANES(Y2, Y3, X3, Y4, X4, Y5, X5, Y6)
	VMULPD  Y2, Y1, Y1 // u
	VMULPD  Y1, Y0, Y2
	VMULPD  K_HALF, Y2, Y2
	VADDPD  K_ONE, Y2, Y2
	VDIVPD  Y2, Y1, Y2
	VSUBPD  Y2, Y0, Y0 // refined x
	VMULPD  Y13, Y0, Y0
	VADDPD  Y14, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     halleyLoop

halleyDone:
	VZEROUPPER
	RET

// func expAVX2(dst, src []float64)
TEXT ·expAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	JZ   expDone

expLoop:
	VMOVUPD (SI), Y0
	EXPLANES(Y0, Y1, X1, Y2, X2, Y3, X3, Y4)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     expLoop

expDone:
	VZEROUPPER
	RET
