//go:build amd64 && !purego

package integrity

import "hash/crc32"

// Wide CRC32C via VPCLMULQDQ folding. The stdlib's castagnoli path
// (3-way interleaved CRC32 instructions) tops out around one 8-byte
// CRC32Q per cycle; on AVX-512 parts a single ZMM carry-less multiply
// folds 64 message bytes per two instructions, roughly tripling
// digest throughput. That matters here because the integrity layer
// CRCs every sector on the read path — against an in-memory device
// the digest is a third of the whole read cost.
//
// Scheme (the standard reflected-domain folding): the 16-byte salt
// goes through two CRC32Qs from 0xffffffff, and that state is XORed
// into the first message dword. 256 message bytes then live in four
// ZMM accumulators; each loop iteration multiplies every 128-bit lane
// by x^(2048+64)/x^2048 mod P (low/high qword) and XORs in the next
// 256 bytes — shifting each lane's polynomial contribution forward
// over the data consumed. Four independent accumulators keep the loop
// bound by the carry-less multiplier's throughput, not one fold
// chain's latency. After the loop the accumulators merge into one ZMM
// (per-ZMM distance constants), a mop-up loop folds any remaining
// 64-byte blocks, the four lanes fold into one 128-bit residual
// (48/32/16-byte distances), and the residual — whose raw CRC from
// zero equals the raw CRC of everything folded — is finished with two
// more CRC32Qs. A sector is one call; only a ragged tail (never a
// sector's) goes on to crc32.Update. No Barrett reduction in assembly,
// and the result agrees bit-for-bit with hash/crc32 by construction
// (TestCRCFoldConstants re-derives every constant; FuzzSum and
// TestSumMatchesStdlib differentially guard the whole digest).
//
// The fold constant for a qword sitting n bits before its target is
// bitrev32(x^(n-32) mod P) << 1: the reflected-domain form of
// multiplying by x^n, with the CRC's x^32 pre-multiplication folded
// in and the shift compensating CLMUL's 127-bit product.

// crcFoldVPCLMUL returns the raw CRC32C state after the salt words w0,
// w1 and p[0:n] (n a multiple of 64, n >= 256). Defined in
// crc_amd64.s.
//
//go:noescape
func crcFoldVPCLMUL(p *byte, n int, w0, w1 uint64) uint32

// crcRecord returns CRC32C(p[0:12]) with two CRC32 instructions.
// Defined in crc_amd64.s.
//
//go:noescape
func crcRecord(p *byte) uint32

// crcCpuid and crcXgetbv are defined in crc_amd64.s; the stdlib's
// feature flags live in internal packages this module cannot import.
func crcCpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func crcXgetbv() (eax, edx uint32)

const cpuidSSE42 = 1 << 20 // leaf 1 ECX: the CRC32 instruction

var haveSSE42 = func() bool { _, _, ecx1, _ := crcCpuid(1, 0); return ecx1&cpuidSSE42 != 0 }()

var haveVPCLMUL = func() bool {
	const (
		cpuidPCLMUL     = 1 << 1
		cpuidOSXSAVE    = 1 << 27
		cpuidAVX        = 1 << 28
		cpuidAVX512F    = 1 << 16 // leaf 7 EBX
		cpuidVPCLMULQDQ = 1 << 10 // leaf 7 ECX
		leaf1           = cpuidPCLMUL | cpuidSSE42 | cpuidOSXSAVE | cpuidAVX
	)
	if _, _, ecx1, _ := crcCpuid(1, 0); ecx1&leaf1 != leaf1 {
		return false
	}
	// The OS must have enabled XMM+YMM and opmask+ZMM state in XCR0.
	if xcr0, _ := crcXgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, ecx7, _ := crcCpuid(7, 0)
	return ebx7&cpuidAVX512F != 0 && ecx7&cpuidVPCLMULQDQ != 0
}()

// crcFoldThreshold is the assembly's minimum, n&^63 >= 256 (the four
// accumulators load 256 bytes up front): the fold's fixed costs already
// amortise there. BenchmarkSum, 2-vCPU Xeon, 5 interleaved runs: 512 B
// folded 22–30 ns vs 53–68 ns through crcWord and the stdlib.
const crcFoldThreshold = 256

func sum(w0, w1 uint64, p []byte) uint32 {
	if !haveVPCLMUL || len(p) < crcFoldThreshold {
		return sumStdlib(w0, w1, p)
	}
	n := len(p) &^ 63
	raw := crcFoldVPCLMUL(&p[0], n, w0, w1)
	if n == len(p) {
		return ^raw
	}
	return crc32.Update(^raw, castagnoli, p[n:])
}

func recordCRC(raw []byte) uint32 {
	if !haveSSE42 {
		return crc32.Checksum(raw[0:12], castagnoli)
	}
	_ = raw[11]
	return crcRecord(&raw[0])
}

func crcKernelName() string {
	if haveVPCLMUL {
		return "vpclmulqdq"
	}
	return "stdlib"
}
