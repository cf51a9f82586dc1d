// Package integrity implements the per-sector end-to-end checksum
// layer: a self-describing 16-byte record per data sector, persisted
// in a per-device sidecar region, that turns silent corruption into a
// *located* erasure the STAIR decoder can repair.
//
// Each record stores a CRC32C over the sector's payload salted with
// the sector's device address (column, sector index) and the volume
// epoch. The salt is what widens coverage beyond bit rot: a
// misdirected write lands whole-sector-valid data at the wrong
// address, so an address-salted digest fails; a stale write (old data
// resurfacing after a lost write) carries an old epoch's digest, so
// an epoch-salted digest fails. The record itself carries a second
// CRC over its own header so a torn or rotted sidecar sector can
// never produce a false verdict — an unparseable record is "absent"
// (no claim), not a mismatch.
package integrity

import (
	"encoding/binary"
	"hash/crc32"
)

// RecordSize is the on-disk size of one checksum record. A sector
// holds SectorSize/RecordSize records, so sector sizes must be
// multiples of 16 (every real sector size is).
const RecordSize = 16

// recordVersion is the current record format version.
const recordVersion = 1

// flagWritten marks a record as covering real payload. A record with
// the flag clear (or an invalid record) makes no claim about the
// sector's content.
const flagWritten = 1

// castagnoli is the CRC32C table (hardware-accelerated on amd64 and
// arm64 via the stdlib's SSE4.2 / ARMv8 CRC paths).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded checksum record.
//
// On-disk layout (little-endian):
//
//	[0]     version
//	[1]     flags (bit0 = written)
//	[2:4]   reserved, zero
//	[4:8]   epoch
//	[8:12]  salted CRC32C of the sector payload
//	[12:16] CRC32C of bytes [0:12] (the record's self-check)
type Record struct {
	Epoch uint32
	Sum   uint32
}

// Sum computes the salted payload digest for a sector: CRC32C over a
// 16-byte salt (epoch, column, device sector index) followed by the
// payload. Identical payloads at different addresses — or written
// under different epochs — produce different digests.
//
// The salt never exists as bytes: its two little-endian words are
// CRC'd in registers, by the fold kernel's own CRC32 instructions on
// amd64 and by crcWord on the portable path (sumStdlib).
func Sum(epoch uint32, col, sector int, data []byte) uint32 {
	return sum(uint64(epoch)|uint64(uint32(col))<<32, uint64(sector), data)
}

// sumStdlib is Sum through crcWord and hash/crc32: the portable build,
// payloads under the fold threshold and CPUs without the fold's
// feature bits.
func sumStdlib(w0, w1 uint64, data []byte) uint32 {
	return crc32.Update(^crcWord(crcWord(^uint32(0), w0), w1), castagnoli, data)
}

// slicing8 is the slicing-by-8 expansion of the Castagnoli table:
// slicing8[k][b] is the CRC of byte b followed by k zero bytes.
var slicing8 = func() *[8][256]uint32 {
	var t [8][256]uint32
	t[0] = *castagnoli
	for b := range t[0] {
		crc := t[0][b]
		for k := 1; k < 8; k++ {
			crc = t[0][crc&0xff] ^ crc>>8
			t[k][b] = crc
		}
	}
	return &t
}()

// crcWord advances a raw (un-inverted) CRC32C state over the eight
// little-endian bytes of w, entirely in registers and table lookups.
// sumStdlib runs the salt through it: handed to crc32.Update, which
// dispatches through a function variable, a salt array would be moved
// to the heap, one allocation per verified or staged sector.
func crcWord(raw uint32, w uint64) uint32 {
	w ^= uint64(raw)
	t := slicing8
	return t[7][w&0xff] ^ t[6][w>>8&0xff] ^ t[5][w>>16&0xff] ^ t[4][w>>24&0xff] ^
		t[3][w>>32&0xff] ^ t[2][w>>40&0xff] ^ t[1][w>>48&0xff] ^ t[0][w>>56]
}

// KernelName reports which payload-digest implementation Sum runs
// ("vpclmulqdq" for the AVX-512 folding kernel, "stdlib" otherwise).
func KernelName() string { return crcKernelName() }

// Encode serialises rec into dst (which must be at least RecordSize
// bytes) with the written flag set and a valid self-check.
func Encode(dst []byte, rec Record) {
	_ = dst[RecordSize-1]
	dst[0] = recordVersion
	dst[1] = flagWritten
	dst[2], dst[3] = 0, 0
	binary.LittleEndian.PutUint32(dst[4:8], rec.Epoch)
	binary.LittleEndian.PutUint32(dst[8:12], rec.Sum)
	binary.LittleEndian.PutUint32(dst[12:16], recordCRC(dst))
}

// Decode parses one record from raw. ok is false when the record
// makes no claim: wrong length, unknown version, written flag clear,
// or a failed self-check (torn/rotted sidecar bytes). A never-written
// (all-zero) region decodes as not-ok everywhere, so fresh devices
// verify nothing rather than everything.
func Decode(raw []byte) (rec Record, ok bool) {
	if len(raw) < RecordSize {
		return Record{}, false
	}
	if recordCRC(raw) != binary.LittleEndian.Uint32(raw[12:16]) {
		return Record{}, false
	}
	if raw[0] != recordVersion || raw[1]&flagWritten == 0 || raw[2] != 0 || raw[3] != 0 {
		return Record{}, false
	}
	return Record{
		Epoch: binary.LittleEndian.Uint32(raw[4:8]),
		Sum:   binary.LittleEndian.Uint32(raw[8:12]),
	}, true
}

// MetaSectors returns how many sidecar sectors a device needs to hold
// one record per data sector: ceil(dataSectors / recordsPerSector).
func MetaSectors(dataSectors, sectorSize int) int {
	per := sectorSize / RecordSize
	if per <= 0 {
		return 0
	}
	return (dataSectors + per - 1) / per
}
