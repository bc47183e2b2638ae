#include "textflag.h"

// Four copies of each constant, one per lane. The log constants are
// $GOROOT/src/math/log_amd64.s's, written with the same literals.
#define LANES(name, val) \
	DATA name<>+0(SB)/8, val; \
	DATA name<>+8(SB)/8, val; \
	DATA name<>+16(SB)/8, val; \
	DATA name<>+24(SB)/8, val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

LANES(mantMask, $0x000FFFFFFFFFFFFF)
LANES(expMagic, $0x4330000000000000) // 2^52: e | bits(2^52) reads 2^52 + e
LANES(expBias, $0x43300000000003FE)  // 2^52 + 1022
LANES(half, $0.5)
LANES(one, $1.0)
LANES(two, $2.0)
LANES(minusTwo, $-2.0)
LANES(hSqrt2, $7.07106781186547524401e-01)
LANES(ln2Hi, $6.93147180369123816490e-01)
LANES(ln2Lo, $1.90821492927058770002e-10)
LANES(logL1, $6.666666666666735130e-01)
LANES(logL2, $3.999999999940941908e-01)
LANES(logL3, $2.857142874366239149e-01)
LANES(logL4, $2.222219843214978396e-01)
LANES(logL5, $1.818357216161805012e-01)
LANES(logL6, $1.531383769920937332e-01)
LANES(logL7, $1.479819860511658591e-01)

// func polarAVX2(out []complex128, u, v, s []float64)
//
// For k < len(out) (a multiple of 4), with f = √(−2·log(s[k])/s[k]):
// out[k] = complex(u[k]·f, v[k]·f). log is math/log_amd64.s's archLog,
// instruction for instruction, on four lanes; every step is one IEEE
// operation in archLog's order, with no fused multiply-add, so each lane
// rounds exactly as math.Log and NormPairs' scalar expression do. The
// special cases archLog branches on (zero, negative, Inf, NaN) and
// subnormals never reach it: NormPairs accepts only 0 < s < 1, and the
// smallest nonzero u²+v² it can form is 2^-104.
TEXT ·polarAVX2(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ u_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ s_base+72(FP), BX
	SHRQ $2, CX
	JZ   done

loop:
	VMOVUPD (BX), Y0 // s

	// f1 := frexp fraction of s in [0.5, 1); k := float64(exponent)
	VANDPD mantMask<>(SB), Y0, Y1
	VORPD  half<>(SB), Y1, Y1 // f1
	VPSRLQ $52, Y0, Y2
	VPOR   expMagic<>(SB), Y2, Y2
	VSUBPD expBias<>(SB), Y2, Y2 // k, exact

	// archLog's CMPSD predicate 5 (not-less-than) on (√2/2, f1):
	// where f1 <= √2/2, k -= 1 and f1 *= 2.
	VMOVUPD   hSqrt2<>(SB), Y3
	VCMPPD    $5, Y1, Y3, Y3
	VANDPD    one<>(SB), Y3, Y3 // 0 or 1
	VSUBPD    Y3, Y2, Y2        // k
	VADDPD    one<>(SB), Y3, Y3 // 1 or 2
	VMULPD    Y3, Y1, Y1
	VSUBPD    one<>(SB), Y1, Y1 // f := f1 - 1

	// sd := f / (2 + f); s2 := sd*sd; s4 := s2*s2
	VADDPD two<>(SB), Y1, Y3
	VDIVPD Y3, Y1, Y3 // sd
	VMULPD Y3, Y3, Y4 // s2
	VMULPD Y4, Y4, Y5 // s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4 // t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5 // t2

	VADDPD Y5, Y4, Y4 // R := t1 + t2

	// hfsq := 0.5 * f * f
	VMULPD half<>(SB), Y1, Y6
	VMULPD Y1, Y6, Y6

	// lg := k*Ln2Hi - ((hfsq - (sd*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y6, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD ln2Lo<>(SB), Y2, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y6, Y6
	VSUBPD Y1, Y6, Y6
	VMULPD ln2Hi<>(SB), Y2, Y2
	VSUBPD Y6, Y2, Y2 // lg

	// f := √(−2·lg / s)
	VMULPD  minusTwo<>(SB), Y2, Y2
	VDIVPD  Y0, Y2, Y2
	VSQRTPD Y2, Y2

	// out[k] = complex(u·f, v·f), interleaved
	VMULPD     (SI), Y2, Y3 // a0 a1 a2 a3
	VMULPD     (DX), Y2, Y4 // b0 b1 b2 b3
	VUNPCKLPD  Y4, Y3, Y5   // a0 b0 a2 b2
	VUNPCKHPD  Y4, Y3, Y6   // a1 b1 a3 b3
	VPERM2F128 $0x20, Y6, Y5, Y7
	VPERM2F128 $0x31, Y6, Y5, Y8
	VMOVUPD    Y7, (DI)
	VMOVUPD    Y8, 32(DI)

	ADDQ $32, BX
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET
