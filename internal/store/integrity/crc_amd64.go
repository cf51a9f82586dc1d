//go:build amd64 && !purego

package integrity

import (
	"encoding/binary"
	"hash/crc32"
)

// Wide CRC32C via VPCLMULQDQ folding. The stdlib's castagnoli path
// (3-way interleaved CRC32 instructions) tops out around one 8-byte
// CRC32Q per cycle; on AVX-512 parts a single ZMM carry-less multiply
// folds 64 message bytes per two instructions, roughly tripling
// digest throughput. That matters here because the integrity layer
// CRCs every sector on the read path — against an in-memory device
// the digest is a third of the whole read cost.
//
// Scheme (the standard reflected-domain folding): 256 message bytes
// live in four ZMM accumulators; each loop iteration multiplies every
// 128-bit lane by x^(2048+64)/x^2048 mod P (low/high qword) and XORs
// in the next 256 bytes — shifting each lane's polynomial
// contribution forward over the data consumed. Four independent
// accumulators keep the loop bound by the carry-less multiplier's
// throughput, not one fold chain's latency. After the loop the
// accumulators merge into one ZMM (per-ZMM distance constants), a
// mop-up loop folds any remaining 64-byte blocks, the four lanes fold
// into one 128-bit residual (48/32/16-byte distances), and the
// residual block — whose raw CRC from zero equals the raw CRC of
// everything folded — is finished on the stdlib's CRC32Q path, which
// also absorbs the unaligned tail. No Barrett reduction in assembly,
// and both paths agree bit-for-bit by construction
// (TestCRCFoldConstants re-derives every constant; FuzzCRCUpdate
// differentially guards the whole function).
//
// The fold constant for a qword sitting n bits before its target is
// bitrev32(x^(n-32) mod P) << 1: the reflected-domain form of
// multiplying by x^n, with the CRC's x^32 pre-multiplication folded
// in and the shift compensating CLMUL's 127-bit product.

// crcFoldVPCLMUL folds p[0:n] (n a multiple of 64, n >= 256) with
// initial raw CRC state init into a 16-byte residual block written to
// out. Defined in crc_amd64.s.
//
//go:noescape
func crcFoldVPCLMUL(p *byte, n int, init uint32, out *[16]byte)

// crcCpuid and crcXgetbv are defined in crc_amd64.s; the stdlib's
// feature flags live in internal packages this module cannot import.
func crcCpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func crcXgetbv() (eax, edx uint32)

var haveVPCLMUL = func() bool {
	const (
		cpuidPCLMUL     = 1 << 1
		cpuidOSXSAVE    = 1 << 27
		cpuidAVX        = 1 << 28
		cpuidAVX512F    = 1 << 16 // leaf 7 EBX
		cpuidVPCLMULQDQ = 1 << 10 // leaf 7 ECX
	)
	_, _, ecx1, _ := crcCpuid(1, 0)
	if ecx1&(cpuidPCLMUL|cpuidOSXSAVE|cpuidAVX) != cpuidPCLMUL|cpuidOSXSAVE|cpuidAVX {
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
// amortise there. BenchmarkCRCUpdate, 2-vCPU Xeon, interleaved runs:
// 512 B folded 32–35 ns vs stdlib 36–46 ns (5 of 5), 1 KiB 33–48 vs
// 64–73 ns, 256–448 B 28–42 vs 37–67 ns.
const crcFoldThreshold = 256

func crcUpdate(crc uint32, p []byte) uint32 {
	if !haveVPCLMUL || len(p) < crcFoldThreshold {
		return crc32.Update(crc, castagnoli, p)
	}
	n := len(p) &^ 63
	var res [16]byte
	crcFoldVPCLMUL(&p[0], n, ^crc, &res)
	// The residual block carries the entire folded prefix: continuing
	// the CRC over it (from a fresh state) and then the ragged tail
	// yields the CRC of all of p. The block goes through crcWord: handed
	// to crc32.Update, res would be moved to the heap on every call.
	raw := crcWord(0, binary.LittleEndian.Uint64(res[0:8]))
	raw = crcWord(raw, binary.LittleEndian.Uint64(res[8:16]))
	return crc32.Update(^raw, castagnoli, p[n:])
}

func crcKernelName() string {
	if haveVPCLMUL {
		return "vpclmulqdq"
	}
	return "stdlib"
}
