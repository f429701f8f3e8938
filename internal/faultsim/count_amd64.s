#include "textflag.h"

// func count8AVX2(v []widesim.Vec, recs []faultRec, grp []int32, mask *widesim.Vec, counts []int)
//
// A widesim.Vec is 64 bytes, so value slot s starts at byte s<<6, and
// its lanes 0-3 and 4-7 are one YMM register each.  A faultRec is 24 bytes: site,
// line and aggr slots at 0, 4 and 8, the activation class at 12 and
// the stuck word at 16.
//
// Registers: DI values, SI recs, R8 grp, CX its length, BX the index
// into it, R9 counts, R10 the fault index, R11 its record, R12 a slot's
// byte offset, R13 the activation class and AX, DX the popcounts.  Y6
// and Y7 hold the mask, Y8 has every bit but bit 0 of each lane set,
// Y2 holds the stuck word, Y3 and Y4 the detection words.
TEXT ·count8AVX2(SB), NOSPLIT, $64-104
	MOVQ         v_base+0(FP), DI
	MOVQ         recs_base+24(FP), SI
	MOVQ         grp_base+48(FP), R8
	MOVQ         grp_len+56(FP), CX
	MOVQ         mask+72(FP), AX
	MOVQ         counts_base+80(FP), R9
	VMOVDQU      (AX), Y6
	VMOVDQU      32(AX), Y7
	VPCMPEQQ     Y8, Y8, Y8
	VPSLLQ       $1, Y8, Y8
	XORQ         BX, BX
	JMP          next

fault:
	MOVL         (R8)(BX*4), R10
	LEAQ         (R10)(R10*2), R11
	LEAQ         (SI)(R11*8), R11
	MOVL         (R11), R12
	SHLQ         $6, R12
	VMOVDQU      (DI)(R12*1), Y0
	VMOVDQU      32(DI)(R12*1), Y1
	VPBROADCASTQ 16(R11), Y2
	VPXOR        Y2, Y0, Y3           // site ^ stuck
	VPXOR        Y2, Y1, Y4
	MOVL         12(R11), R13
	CMPL         R13, $1              // actBridge
	JB           line
	JE           bridge

	// actTransition: &^ ((site << 1) ^ stuck), bit 0 cleared.
	VPSLLQ       $1, Y0, Y0
	VPSLLQ       $1, Y1, Y1
	VPXOR        Y2, Y0, Y0
	VPXOR        Y2, Y1, Y1
	VPANDN       Y3, Y0, Y3
	VPANDN       Y4, Y1, Y4
	VPAND        Y8, Y3, Y3
	VPAND        Y8, Y4, Y4
	JMP          line

	// actBridge: &^ (aggr ^ stuck).
bridge:
	MOVL         8(R11), R12
	SHLQ         $6, R12
	VPXOR        (DI)(R12*1), Y2, Y0
	VPXOR        32(DI)(R12*1), Y2, Y1
	VPANDN       Y3, Y0, Y3
	VPANDN       Y4, Y1, Y4

line:
	MOVL         4(R11), R12
	SHLQ         $6, R12
	VPAND        (DI)(R12*1), Y3, Y3
	VPAND        32(DI)(R12*1), Y4, Y4
	VPAND        Y6, Y3, Y3
	VPAND        Y7, Y4, Y4
	VMOVDQU      Y3, (SP)
	VMOVDQU      Y4, 32(SP)
	POPCNTQ      (SP), AX
	POPCNTQ      8(SP), DX
	ADDQ         DX, AX
	POPCNTQ      16(SP), DX
	ADDQ         DX, AX
	POPCNTQ      24(SP), DX
	ADDQ         DX, AX
	POPCNTQ      32(SP), DX
	ADDQ         DX, AX
	POPCNTQ      40(SP), DX
	ADDQ         DX, AX
	POPCNTQ      48(SP), DX
	ADDQ         DX, AX
	POPCNTQ      56(SP), DX
	ADDQ         DX, AX
	ADDQ         AX, (R9)(R10*8)
	INCQ         BX

next:
	CMPQ         BX, CX
	JB           fault
	VZEROUPPER
	RET
