//go:build !amd64 || purego

package integrity

import "hash/crc32"

// sum is Sum's digest over the salt words w0, w1 and p. Portable form:
// the standard library's implementation, which already uses the
// hardware CRC instructions (SSE4.2 / ARMv8 CRC) where the platform
// has them.
func sum(w0, w1 uint64, p []byte) uint32 { return sumStdlib(w0, w1, p) }

// recordCRC returns CRC32C(raw[0:12]), a record's self-check.
func recordCRC(raw []byte) uint32 { return crc32.Checksum(raw[0:12], castagnoli) }

// crcKernelName reports which payload-digest path Sum runs.
func crcKernelName() string { return "stdlib" }
