//go:build amd64 && !purego

#include "textflag.h"

// CRC32C (Castagnoli) fold constants, K(n) = bitrev32(x^(n-32) mod P)
// << 1 for P = 0x11EDC6F41 — see crc_amd64.go for the derivation and
// TestCRCFoldConstants for the re-derivation that pins these values.
//
//	+0x00: K(576),  K(512)   fold one ZMM by 64 bytes (mop-up loop, Z-merge)
//	+0x10: K(448),  K(384)   merge lane 0 (48 bytes before the residual)
//	+0x20: K(320),  K(256)   merge lane 1 (32 bytes)
//	+0x30: K(192),  K(128)   merge lane 2 (16 bytes)
//	+0x40: K(2112), K(2048)  fold one ZMM by 256 bytes (main loop)
//	+0x50: K(1600), K(1536)  merge accumulator 0 (192 bytes)
//	+0x60: K(1088), K(1024)  merge accumulator 1 (128 bytes)
DATA crcfoldk<>+0x00(SB)/8, $0x00000000740eef02
DATA crcfoldk<>+0x08(SB)/8, $0x000000009e4addf8
DATA crcfoldk<>+0x10(SB)/8, $0x000000001c291d04
DATA crcfoldk<>+0x18(SB)/8, $0x00000001d82c63da
DATA crcfoldk<>+0x20(SB)/8, $0x00000001384aa63a
DATA crcfoldk<>+0x28(SB)/8, $0x00000000ba4fc28e
DATA crcfoldk<>+0x30(SB)/8, $0x00000000f20c0dfe
DATA crcfoldk<>+0x38(SB)/8, $0x000000014cd00bd6
DATA crcfoldk<>+0x40(SB)/8, $0x00000000dcb17aa4
DATA crcfoldk<>+0x48(SB)/8, $0x00000000b9e02b86
DATA crcfoldk<>+0x50(SB)/8, $0x00000000a87ab8a8
DATA crcfoldk<>+0x58(SB)/8, $0x00000000ab7aff2a
DATA crcfoldk<>+0x60(SB)/8, $0x000000006992cea2
DATA crcfoldk<>+0x68(SB)/8, $0x000000000d3b6092
GLOBL crcfoldk<>(SB), RODATA|NOPTR, $112

// func crcFoldVPCLMUL(p *byte, n int, w0, w1 uint64) uint32
//
// Returns the raw (un-inverted) CRC32C state after the salt words w0,
// w1 and p[0:n] (n a multiple of 64, n >= 256), starting from
// 0xffffffff. The salt goes through CRC32Q into the state that is
// XORed into the first 4 message bytes; the folded 16-byte residual is
// finished with two more CRC32Qs from zero. Four independent ZMM
// accumulators keep the main loop throughput-bound on the carry-less
// multiplier instead of latency-bound on one fold chain.
TEXT ·crcFoldVPCLMUL(SB), NOSPLIT, $0-36
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	MOVL $0xffffffff, AX
	CRC32Q w0+16(FP), AX
	CRC32Q w1+24(FP), AX

	// Accumulators Z10..Z13 = first 256 bytes, with the salted CRC
	// state XORed into the low dword of the very first lane.
	VMOVDQU64 (SI), Z10
	VMOVDQU64 64(SI), Z11
	VMOVDQU64 128(SI), Z12
	VMOVDQU64 192(SI), Z13
	VMOVD     AX, X1
	VPXORQ    Z1, Z10, Z10

	VBROADCASTI32X4 crcfoldk<>+0x40(SB), Z8 // [K(2112), K(2048)] per lane
	VBROADCASTI32X4 crcfoldk<>+0x00(SB), Z9 // [K(576),  K(512)]  per lane

	LEAQ (SI)(CX*1), DX // end of input
	ADDQ $256, SI
	LEAQ -256(DX), BX
	CMPQ SI, BX
	JA   merge4

loop256:
	// Each accumulator independently: Zk = Zk.lo×K(2112) ^
	// Zk.hi×K(2048) ^ next block — four chains the out-of-order core
	// overlaps.
	VPCLMULQDQ $0x00, Z8, Z10, Z0
	VPCLMULQDQ $0x11, Z8, Z10, Z10
	VPXORQ     Z0, Z10, Z10
	VPXORQ     (SI), Z10, Z10

	VPCLMULQDQ $0x00, Z8, Z11, Z1
	VPCLMULQDQ $0x11, Z8, Z11, Z11
	VPXORQ     Z1, Z11, Z11
	VPXORQ     64(SI), Z11, Z11

	VPCLMULQDQ $0x00, Z8, Z12, Z2
	VPCLMULQDQ $0x11, Z8, Z12, Z12
	VPXORQ     Z2, Z12, Z12
	VPXORQ     128(SI), Z12, Z12

	VPCLMULQDQ $0x00, Z8, Z13, Z3
	VPCLMULQDQ $0x11, Z8, Z13, Z13
	VPXORQ     Z3, Z13, Z13
	VPXORQ     192(SI), Z13, Z13

	ADDQ $256, SI
	CMPQ SI, BX
	JBE  loop256

merge4:
	// Fold the four accumulators into Z13, each by its distance to the
	// last-consumed 64-byte block.
	VBROADCASTI32X4 crcfoldk<>+0x50(SB), Z0
	VPCLMULQDQ      $0x00, Z0, Z10, Z1
	VPCLMULQDQ      $0x11, Z0, Z10, Z2
	VPXORQ          Z1, Z13, Z13
	VPXORQ          Z2, Z13, Z13

	VBROADCASTI32X4 crcfoldk<>+0x60(SB), Z0
	VPCLMULQDQ      $0x00, Z0, Z11, Z1
	VPCLMULQDQ      $0x11, Z0, Z11, Z2
	VPXORQ          Z1, Z13, Z13
	VPXORQ          Z2, Z13, Z13

	VPCLMULQDQ $0x00, Z9, Z12, Z1
	VPCLMULQDQ $0x11, Z9, Z12, Z2
	VPXORQ     Z1, Z13, Z13
	VPXORQ     Z2, Z13, Z13

	// Mop up remaining whole 64-byte blocks (n % 256) one ZMM at a
	// time.
	LEAQ -64(DX), BX
	CMPQ SI, BX
	JA   lanes

loop64:
	VPCLMULQDQ $0x00, Z9, Z13, Z0
	VPCLMULQDQ $0x11, Z9, Z13, Z13
	VPXORQ     Z0, Z13, Z13
	VPXORQ     (SI), Z13, Z13
	ADDQ       $64, SI
	CMPQ       SI, BX
	JBE        loop64

lanes:
	// Fold Z13's four lanes into lane 3 (the last 16 bytes), each by
	// its distance to the residual block.
	VEXTRACTI32X4 $1, Z13, X5
	VEXTRACTI32X4 $2, Z13, X6
	VEXTRACTI32X4 $3, Z13, X7

	VMOVDQU    crcfoldk<>+0x10(SB), X2
	VPCLMULQDQ $0x00, X2, X13, X3
	VPCLMULQDQ $0x11, X2, X13, X4
	VPXOR      X3, X7, X7
	VPXOR      X4, X7, X7

	VMOVDQU    crcfoldk<>+0x20(SB), X2
	VPCLMULQDQ $0x00, X2, X5, X3
	VPCLMULQDQ $0x11, X2, X5, X4
	VPXOR      X3, X7, X7
	VPXOR      X4, X7, X7

	VMOVDQU    crcfoldk<>+0x30(SB), X2
	VPCLMULQDQ $0x00, X2, X6, X3
	VPCLMULQDQ $0x11, X2, X6, X4
	VPXOR      X3, X7, X7
	VPXOR      X4, X7, X7

	// The residual's raw CRC from zero is the raw CRC of everything
	// folded.
	VMOVQ   X7, BX
	VPEXTRQ $1, X7, DX
	XORL    AX, AX
	CRC32Q  BX, AX
	CRC32Q  DX, AX
	MOVL    AX, ret+32(FP)
	VZEROUPPER
	RET

// func crcRecord(p *byte) uint32
//
// Returns CRC32C(p[0:12]), a record's self-check.
TEXT ·crcRecord(SB), NOSPLIT, $0-12
	MOVQ   p+0(FP), SI
	MOVL   $0xffffffff, AX
	CRC32Q (SI), AX
	CRC32L 8(SI), AX
	NOTL   AX
	MOVL   AX, ret+8(FP)
	RET

// func crcCpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·crcCpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func crcXgetbv() (eax, edx uint32)
TEXT ·crcXgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
