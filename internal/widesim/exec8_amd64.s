#include "textflag.h"

// func exec8AVX2(v []Vec, code []instr, args []int32) int
//
// A Vec is 64 bytes, so value slot s starts at byte s<<6, and its lanes
// 0-3 and 4-7 are one YMM register each: Y0 and Y1 accumulate the
// result.  Every odd opcode below opAndNot2 (Const1, Not, Nand2, Nor2,
// Xnor2, NandN, NorN and XnorN) is the inverse of the even one before
// it, so one test of bit 0 and an XOR with the all-ones register Y9
// cover all of them.  opAndNot2 and opOrXorN store their result
// directly, and opTable and opTablePin return to Go.
//
// Registers: DI values, SI the current instr, BX its index, CX the
// stream length, R8 args, AX the opcode, DX the output's byte offset,
// R9 and R10 the operands'.
TEXT ·exec8AVX2(SB), NOSPLIT, $0-80
	MOVQ     v_base+0(FP), DI
	MOVQ     code_base+24(FP), SI
	MOVQ     code_len+32(FP), CX
	MOVQ     args_base+48(FP), R8
	VPCMPEQQ Y9, Y9, Y9
	XORQ     BX, BX
	JMP      next

gate:
	MOVL    (SI), AX     // opOut
	MOVL    AX, DX
	ANDL    $31, AX      // opcode (opBits = 5)
	SHRL    $5, DX       // output slot
	SHLQ    $6, DX
	MOVL    4(SI), R9
	CMPL    AX, $10      // opAndN
	JAE     nary
	SHLQ    $6, R9
	VMOVDQU (DI)(R9*1), Y0
	VMOVDQU 32(DI)(R9*1), Y1
	CMPL    AX, $4       // opAnd2
	JB      unary
	MOVL    8(SI), R10
	SHLQ    $6, R10
	CMPL    AX, $6       // opOr2
	JB      and2
	CMPL    AX, $8       // opXor2
	JB      or2
	VPXOR   (DI)(R10*1), Y0, Y0
	VPXOR   32(DI)(R10*1), Y1, Y1
	JMP     invert

or2:
	VPOR (DI)(R10*1), Y0, Y0
	VPOR 32(DI)(R10*1), Y1, Y1
	JMP  invert

and2:
	VPAND (DI)(R10*1), Y0, Y0
	VPAND 32(DI)(R10*1), Y1, Y1
	JMP   invert

	// Const0, Const1, Buf and Not.  The constants' operand slot is 0,
	// read above and discarded here.
unary:
	CMPL AX, $2          // opBuf
	JAE  invert
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1

invert:
	TESTL $1, AX
	JZ    store
	VPXOR Y9, Y0, Y0
	VPXOR Y9, Y1, Y1

store:
	VMOVDQU Y0, (DI)(DX*1)
	VMOVDQU Y1, 32(DI)(DX*1)
	ADDQ    $12, SI
	INCQ    BX

next:
	CMPQ BX, CX
	JB   gate
	JMP  done

	// n-ary gate: R9 is its pin list's offset in args and R10 its pin
	// count, always at least 3.  R11 walks the pins, R9 ends them.
nary:
	CMPL    AX, $15      // opXnorN
	JA      more
	MOVL    8(SI), R10
	LEAQ    (R8)(R9*4), R11
	LEAQ    (R11)(R10*4), R9
	MOVL    (R11), R10
	SHLQ    $6, R10
	VMOVDQU (DI)(R10*1), Y0
	VMOVDQU 32(DI)(R10*1), Y1
	ADDQ    $4, R11
	CMPL    AX, $12      // opOrN
	JB      andn
	CMPL    AX, $14      // opXorN
	JB      orn

xorn:
	MOVL  (R11), R10
	SHLQ  $6, R10
	VPXOR (DI)(R10*1), Y0, Y0
	VPXOR 32(DI)(R10*1), Y1, Y1
	ADDQ  $4, R11
	CMPQ  R11, R9
	JB    xorn
	JMP   invert

orn:
	MOVL (R11), R10
	SHLQ $6, R10
	VPOR (DI)(R10*1), Y0, Y0
	VPOR 32(DI)(R10*1), Y1, Y1
	ADDQ $4, R11
	CMPQ R11, R9
	JB   orn
	JMP  invert

andn:
	MOVL  (R11), R10
	SHLQ  $6, R10
	VPAND (DI)(R10*1), Y0, Y0
	VPAND 32(DI)(R10*1), Y1, Y1
	ADDQ  $4, R11
	CMPQ  R11, R9
	JB    andn
	JMP   invert

more:
	CMPL    AX, $17      // opOrXorN
	JE      orxorn
	JA      done         // opTable and opTablePin, for Go

	// opAndNot2: ^a & b, with R9 the slot of a.
	SHLQ    $6, R9
	MOVL    8(SI), R10
	SHLQ    $6, R10
	VMOVDQU (DI)(R9*1), Y0
	VMOVDQU 32(DI)(R9*1), Y1
	VPANDN  (DI)(R10*1), Y0, Y0
	VPANDN  32(DI)(R10*1), Y1, Y1
	JMP     store

	// opOrXorN: R9 is its pin list's offset in args and R10 its pin
	// count, even and at least 4.  R11 walks the pairs, R9 ends them,
	// and Y2 and Y3 hold each pair's XOR.
orxorn:
	MOVL  8(SI), R10
	LEAQ  (R8)(R9*4), R11
	LEAQ  (R11)(R10*4), R9
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1

orxor:
	MOVL    (R11), R10
	SHLQ    $6, R10
	VMOVDQU (DI)(R10*1), Y2
	VMOVDQU 32(DI)(R10*1), Y3
	MOVL    4(R11), R10
	SHLQ    $6, R10
	VPXOR   (DI)(R10*1), Y2, Y2
	VPXOR   32(DI)(R10*1), Y3, Y3
	VPOR    Y2, Y0, Y0
	VPOR    Y3, Y1, Y1
	ADDQ    $8, R11
	CMPQ    R11, R9
	JB      orxor
	JMP     store

done:
	VZEROUPPER
	MOVQ BX, ret+72(FP)
	RET

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
