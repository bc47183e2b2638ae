#include "textflag.h"

// Sign bit of each complex's real lane: XOR negates the real parts.
DATA negRe<>+0(SB)/8, $0x8000000000000000
DATA negRe<>+8(SB)/8, $0
DATA negRe<>+16(SB)/8, $0x8000000000000000
DATA negRe<>+24(SB)/8, $0
GLOBL negRe<>(SB), RODATA|NOPTR, $32

// CMUL sets out = x·b for two complex128 lanes, with br = (Re b, Re b)
// and bi = (Im b, Im b) per lane, in the order Go compiles a complex128
// multiply: Re = xr·br − xi·bi, Im = xi·br + xr·bi, each product and sum
// rounded once (no fused multiply-add).
#define CMUL(x, br, bi, tmp, out) \
	VPERMILPD $5, x, tmp; \
	VMULPD    bi, tmp, tmp; \
	VMULPD    br, x, out; \
	VADDSUBPD tmp, out, out

// func radix22AVX2(z, u, w []complex128)
//
// radix22 two butterflies per instruction: lanes k and k+1 of every
// radix-2² block of z, with q = len(u) even. Each lane performs radix22's
// operations on the same operands in the same order, so the output is
// bit-identical.
TEXT ·radix22AVX2(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	MOVQ u_base+24(FP), SI
	MOVQ u_len+32(FP), R8
	MOVQ w_base+48(FP), DX
	SHLQ $4, R8                // q·16: byte stride between quarters
	SHLQ $4, CX
	ADDQ DI, CX                // end of z
	LEAQ (R8)(R8*1), R9        // 2q·16
	LEAQ (R9)(R8*1), R10       // 3q·16
	VMOVUPD negRe<>(SB), Y15

block:
	CMPQ DI, CX
	JAE  done
	XORQ AX, AX

lanes:
	LEAQ (DI)(AX*1), BX
	VMOVUPD   (SI)(AX*1), Y0
	VMOVDDUP  Y0, Y1           // Re u
	VPERMILPD $15, Y0, Y2      // Im u
	VMOVUPD   (BX)(R8*1), Y3   // x1
	VMOVUPD   (BX)(R10*1), Y4  // x3
	CMUL(Y3, Y1, Y2, Y5, Y6)   // b1 = x1·u
	CMUL(Y4, Y1, Y2, Y5, Y7)   // b3 = x3·u
	VMOVUPD   (BX), Y3         // x0
	VMOVUPD   (BX)(R9*1), Y4   // x2
	VADDPD    Y6, Y3, Y8       // t0 = x0 + b1
	VSUBPD    Y6, Y3, Y9       // t1 = x0 - b1
	VADDPD    Y7, Y4, Y10      // t2 = x2 + b3
	VSUBPD    Y7, Y4, Y11      // t3 = x2 - b3
	VMOVUPD   (DX)(AX*1), Y0
	VMOVDDUP  Y0, Y1           // Re w
	VPERMILPD $15, Y0, Y2      // Im w
	CMUL(Y10, Y1, Y2, Y5, Y6)  // v2 = t2·w
	CMUL(Y11, Y1, Y2, Y5, Y7)  // v3 = t3·w
	VPERMILPD $5, Y7, Y7
	VXORPD    Y15, Y7, Y7      // i·v3 = (−Im v3, Re v3)
	VADDPD    Y6, Y8, Y3
	VSUBPD    Y6, Y8, Y4
	VADDPD    Y7, Y9, Y5
	VSUBPD    Y7, Y9, Y10
	VMOVUPD   Y3, (BX)         // x0 = t0 + v2
	VMOVUPD   Y4, (BX)(R9*1)   // x2 = t0 - v2
	VMOVUPD   Y5, (BX)(R8*1)   // x1 = t1 + i·v3
	VMOVUPD   Y10, (BX)(R10*1) // x3 = t1 - i·v3
	ADDQ $32, AX
	CMPQ AX, R8
	JB   lanes

	LEAQ (DI)(R8*4), DI
	JMP  block

done:
	VZEROUPPER
	RET

// func radix2AVX2(x, w []complex128)
//
// radix2 two butterflies per instruction: lanes k and k+1 of every block
// of 2q elements of x, with q = len(w) even. Each lane computes
// v = b[k]·w[k] with CMUL, then a[k] = u + v and b[k] = u − v, radix2's
// operations on the same operands in the same order, so the output is
// bit-identical.
TEXT ·radix2AVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ w_len+32(FP), R8
	SHLQ $4, R8                // q·16: byte stride between halves
	SHLQ $4, CX
	ADDQ DI, CX                // end of x

block2:
	CMPQ DI, CX
	JAE  done2
	XORQ AX, AX

lanes2:
	LEAQ (DI)(AX*1), BX
	VMOVUPD   (SI)(AX*1), Y0
	VMOVDDUP  Y0, Y1           // Re w
	VPERMILPD $15, Y0, Y2      // Im w
	VMOVUPD   (BX)(R8*1), Y3   // b
	CMUL(Y3, Y1, Y2, Y5, Y6)   // v = b·w
	VMOVUPD   (BX), Y4         // u
	VADDPD    Y6, Y4, Y7
	VSUBPD    Y6, Y4, Y8
	VMOVUPD   Y7, (BX)         // a = u + v
	VMOVUPD   Y8, (BX)(R8*1)   // b = u - v
	ADDQ $32, AX
	CMPQ AX, R8
	JB   lanes2

	LEAQ (DI)(R8*2), DI
	JMP  block2

done2:
	VZEROUPPER
	RET
