#include "textflag.h"

// func lanesAVX2(h [][8]float64, row []float64, n int)
//
// Eight lockstep lanes in two YMM accumulators: Y0 carries lanes 0-3 and
// Y1 lanes 4-7 of the interleaved arena, whose row r is the 64 bytes
// h[r][0..7]. Step j sums row[i]·h[j+i] for i = p−1 down to 0: one
// broadcast of row[i], then per half a multiply, rounded, and an add,
// rounded, from a zero start. That is Next's order with no fused
// multiply-add, so every lane's sum is bit-identical to Next's. Row p+j
// holds the lanes' scaled innovations; the step adds its sums to them and
// stores the samples there, where step j+1's window ends.
TEXT ·lanesAVX2(SB), NOSPLIT, $0-56
	MOVQ h_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), CX
	MOVQ n+48(FP), BX
	MOVQ CX, R8
	SHLQ $6, R8                // p·64: bytes from a step's first window row to its row p
	LEAQ -8(SI)(CX*8), SI      // &row[p−1]

step:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, AX                // &row[i], i = p−1
	LEAQ -64(DI)(R8*1), DX     // &h[j+i]'s row, i = p−1
	MOVQ CX, R9

term:
	VBROADCASTSD (AX), Y2      // row[i]
	VMULPD       (DX), Y2, Y3
	VMULPD       32(DX), Y2, Y4
	VADDPD       Y3, Y0, Y0
	VADDPD       Y4, Y1, Y1
	SUBQ $8, AX
	SUBQ $64, DX
	DECQ R9
	JNZ  term

	VADDPD  (DI)(R8*1), Y0, Y0   // mean + innovation, in Next's order
	VADDPD  32(DI)(R8*1), Y1, Y1
	VMOVUPD Y0, (DI)(R8*1)
	VMOVUPD Y1, 32(DI)(R8*1)
	ADDQ $64, DI
	DECQ BX
	JNZ  step

	VZEROUPPER
	RET
