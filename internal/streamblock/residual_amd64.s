#include "textflag.h"

// func residualAVX2(acc *[16]float64, phi, x []float64)
//
// Sixteen rows of the AR residual in four YMM accumulators: lane j of Ym
// carries row t−15+4m+j, and at step k adds phi[k]·diff[t−15+4m+j−k].
// Those four diff entries are adjacent and ascend with j, so each
// accumulator takes one unaligned load per k, and the load base walks
// down x by one element per step. Every lane multiplies, rounds, then
// adds and rounds, in ascending k from a zero start, exactly as the
// scalar row sum does; there is no fused multiply-add. Four independent
// accumulators keep the adds off one another's latency.
TEXT ·residualAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ phi_base+8(FP), SI
	MOVQ phi_len+16(FP), CX
	MOVQ x_base+32(FP), DX
	LEAQ -8(DX)(CX*8), DX      // &x[K−1]: rows t−15..t−12 at k = 1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop:
	VBROADCASTSD (SI), Y4      // phi[k]
	VMULPD       (DX), Y4, Y5
	VMULPD       32(DX), Y4, Y6
	VMULPD       64(DX), Y4, Y7
	VMULPD       96(DX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ $8, SI
	SUBQ $8, DX
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
