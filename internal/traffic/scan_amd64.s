#include "textflag.h"

// laneSteps holds k·γ for k = 1..8: each lane's offset from the state
// before its block of eight draws.
DATA laneSteps<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA laneSteps<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA laneSteps<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA laneSteps<>+24(SB)/8, $0x78dde6e5fd29f054
DATA laneSteps<>+32(SB)/8, $0x1715609f7c746c69
DATA laneSteps<>+40(SB)/8, $0xb54cda58fbbee87e
DATA laneSteps<>+48(SB)/8, $0x538454127b096493
DATA laneSteps<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL laneSteps<>(SB), RODATA|NOPTR, $64

// func scan32(s, lim uint64) (n, state uint64)
//
// Z0-Z3 hold the states of the next 32 draws, eight to a register in
// draw order; each iteration runs SplitMix64's output function on all
// 32, compares each output with lim-1 into K1-K4 (bit k of Kj is draw
// 8(j-1)+k of the block), and steps every state by 32γ. The lowest set
// bit of K4:K3:K2:K1 is the first success. out <= lim-1 is out < lim,
// and at o = 2^53, where lim wraps to 0, every output.
TEXT ·scan32(SB), NOSPLIT, $0-32
	MOVQ s+0(FP), AX
	MOVQ lim+8(FP), BX
	DECQ BX

	VPBROADCASTQ AX, Z0
	VPADDQ       laneSteps<>(SB), Z0, Z0
	MOVQ         $0xf1bbcdcbfa53e0a8, CX // 8γ
	VPBROADCASTQ CX, Z12
	VPADDQ       Z12, Z0, Z1
	VPADDQ       Z12, Z1, Z2
	VPADDQ       Z12, Z2, Z3
	MOVQ         $0xc6ef372fe94f82a0, CX // 32γ
	VPBROADCASTQ CX, Z11
	MOVQ         $0xbf58476d1ce4e5b9, CX
	VPBROADCASTQ CX, Z8
	MOVQ         $0x94d049bb133111eb, CX
	VPBROADCASTQ CX, Z9
	VPBROADCASTQ BX, Z10
	XORQ         DX, DX

loop:
	// z = (s ^ s>>30) * 0xbf58476d1ce4e5b9
	VPSRLQ  $30, Z0, Z4
	VPSRLQ  $30, Z1, Z5
	VPSRLQ  $30, Z2, Z6
	VPSRLQ  $30, Z3, Z7
	VPXORQ  Z0, Z4, Z4
	VPXORQ  Z1, Z5, Z5
	VPXORQ  Z2, Z6, Z6
	VPXORQ  Z3, Z7, Z7
	VPMULLQ Z8, Z4, Z4
	VPMULLQ Z8, Z5, Z5
	VPMULLQ Z8, Z6, Z6
	VPMULLQ Z8, Z7, Z7

	// z = (z ^ z>>27) * 0x94d049bb133111eb
	VPSRLQ  $27, Z4, Z13
	VPSRLQ  $27, Z5, Z14
	VPSRLQ  $27, Z6, Z15
	VPSRLQ  $27, Z7, Z16
	VPXORQ  Z13, Z4, Z4
	VPXORQ  Z14, Z5, Z5
	VPXORQ  Z15, Z6, Z6
	VPXORQ  Z16, Z7, Z7
	VPMULLQ Z9, Z4, Z4
	VPMULLQ Z9, Z5, Z5
	VPMULLQ Z9, Z6, Z6
	VPMULLQ Z9, Z7, Z7

	// out = z ^ z>>31; a draw succeeds when out <= lim-1
	VPSRLQ  $31, Z4, Z13
	VPSRLQ  $31, Z5, Z14
	VPSRLQ  $31, Z6, Z15
	VPSRLQ  $31, Z7, Z16
	VPXORQ  Z13, Z4, Z4
	VPXORQ  Z14, Z5, Z5
	VPXORQ  Z15, Z6, Z6
	VPXORQ  Z16, Z7, Z7
	VPCMPUQ $2, Z10, Z4, K1
	VPCMPUQ $2, Z10, Z5, K2
	VPCMPUQ $2, Z10, Z6, K3
	VPCMPUQ $2, Z10, Z7, K4

	VPADDQ   Z11, Z0, Z0
	VPADDQ   Z11, Z1, Z1
	VPADDQ   Z11, Z2, Z2
	VPADDQ   Z11, Z3, Z3
	KUNPCKBW K1, K2, K5 // K5 = K2:K1, draws 0-15 of the block
	KUNPCKBW K3, K4, K6 // K6 = K4:K3, draws 16-31
	KORTESTW K5, K6
	LEAQ     32(DX), DX // leaves the flags of KORTESTW
	JZ       loop

	KMOVW K5, R8
	KMOVW K6, R9
	SHLQ  $16, R9
	ORQ   R9, R8
	BSFQ  R8, R8
	LEAQ  -32(DX)(R8*1), DX
	MOVQ  DX, n+16(FP)

	// state = s + (n+1)γ
	LEAQ  1(DX), R8
	MOVQ  $0x9e3779b97f4a7c15, CX
	IMULQ CX, R8
	ADDQ  AX, R8
	MOVQ  R8, state+24(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, xcr0+0(FP)
	RET
