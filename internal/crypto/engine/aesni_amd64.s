//go:build amd64 && !purego

#include "textflag.h"

// func encryptBlocksAsm(nr int, xk, dst, src *byte, n int)
//
// ECB over n blocks. The main loop keeps eight independent blocks in
// X0-X7 and applies each round key to all eight before loading the next,
// so eight AESENC chains overlap in the pipeline; fewer than eight
// remaining blocks go one at a time. X8 and X9 hold the first and last
// round keys for the whole call, X10 the current middle round key.
TEXT ·encryptBlocksAsm(SB), NOSPLIT, $0-40
	MOVQ nr+0(FP), CX
	MOVQ xk+8(FP), AX
	MOVQ dst+16(FP), DX
	MOVQ src+24(FP), BX
	MOVQ n+32(FP), SI
	MOVQ CX, DI
	SHLQ $4, DI
	MOVUPS (AX), X8
	MOVUPS (AX)(DI*1), X9
	DECQ CX // CX = middle rounds
	CMPQ SI, $8
	JB   tail

loop8:
	MOVUPS 0(BX), X0
	MOVUPS 16(BX), X1
	MOVUPS 32(BX), X2
	MOVUPS 48(BX), X3
	MOVUPS 64(BX), X4
	MOVUPS 80(BX), X5
	MOVUPS 96(BX), X6
	MOVUPS 112(BX), X7
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7
	LEAQ   16(AX), R8
	MOVQ   CX, R9

rounds8:
	MOVUPS (R8), X10
	AESENC X10, X0
	AESENC X10, X1
	AESENC X10, X2
	AESENC X10, X3
	AESENC X10, X4
	AESENC X10, X5
	AESENC X10, X6
	AESENC X10, X7
	ADDQ   $16, R8
	DECQ   R9
	JNZ    rounds8
	AESENCLAST X9, X0
	AESENCLAST X9, X1
	AESENCLAST X9, X2
	AESENCLAST X9, X3
	AESENCLAST X9, X4
	AESENCLAST X9, X5
	AESENCLAST X9, X6
	AESENCLAST X9, X7
	MOVUPS X0, 0(DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	MOVUPS X4, 64(DX)
	MOVUPS X5, 80(DX)
	MOVUPS X6, 96(DX)
	MOVUPS X7, 112(DX)
	ADDQ   $128, BX
	ADDQ   $128, DX
	SUBQ   $8, SI
	CMPQ   SI, $8
	JAE    loop8

tail:
	TESTQ SI, SI
	JZ    done

loop1:
	MOVUPS (BX), X0
	PXOR   X8, X0
	LEAQ   16(AX), R8
	MOVQ   CX, R9

rounds1:
	MOVUPS (R8), X10
	AESENC X10, X0
	ADDQ   $16, R8
	DECQ   R9
	JNZ    rounds1
	AESENCLAST X9, X0
	MOVUPS X0, (DX)
	ADDQ   $16, BX
	ADDQ   $16, DX
	DECQ   SI
	JNZ    loop1

done:
	RET
