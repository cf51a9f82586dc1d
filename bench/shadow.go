package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// shadow is the benchmark's model of the volume: every block's content
// is a deterministic function of (seed, block, version), so the expected
// bytes of any block can be regenerated from one counter per block.
type shadow struct {
	seed      uint64
	blockSize int
	version   []uint32
	scratch   []byte
}

func newShadow(seed uint64, blocks, blockSize int) *shadow {
	return &shadow{seed: seed, blockSize: blockSize, version: make([]uint32, blocks), scratch: make([]byte, blockSize)}
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fillContent writes the content of (block, version) into dst, whose
// length is a multiple of 8.
func fillContent(dst []byte, seed uint64, block int, version uint32) {
	h := mix64(seed ^ mix64(uint64(block)<<32|uint64(version)))
	for off := 0; off+8 <= len(dst); off += 8 {
		h += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(dst[off:], h^h>>29)
	}
}

// current writes block's expected content into dst.
func (s *shadow) current(dst []byte, block int) {
	fillContent(dst, s.seed, block, s.version[block])
}

// bump advances block to its next version and writes that content into
// dst — the payload of the overwrite the caller is about to issue.
func (s *shadow) bump(dst []byte, block int) {
	s.version[block]++
	s.current(dst, block)
}

// check compares bytes read from the volume with the block's expected
// content. A mismatch that equals the previous version is reported as a
// stale read (a lost write); anything else names the first wrong byte.
func (s *shadow) check(block int, got []byte) error {
	s.current(s.scratch, block)
	if bytes.Equal(got, s.scratch) {
		return nil
	}
	if v := s.version[block]; v > 0 {
		fillContent(s.scratch, s.seed, block, v-1)
		if bytes.Equal(got, s.scratch) {
			return fmt.Errorf("block %d: stale content (version %d, want %d)", block, v-1, v)
		}
		s.current(s.scratch, block)
	}
	for i := range got {
		if got[i] != s.scratch[i] {
			return fmt.Errorf("block %d version %d: byte %d is %#02x, want %#02x", block, s.version[block], i, got[i], s.scratch[i])
		}
	}
	return fmt.Errorf("block %d: read %d bytes, want %d", block, len(got), len(s.scratch))
}
