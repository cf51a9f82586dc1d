package main

import (
	"strings"
	"testing"
)

func TestShadowCatchesFlippedByteAndStaleVersion(t *testing.T) {
	sh := newShadow(42, 4, 512)
	old := make([]byte, 512)
	sh.current(old, 2)
	if err := sh.check(2, old); err != nil {
		t.Fatalf("fresh content rejected: %v", err)
	}
	cur := make([]byte, 512)
	sh.bump(cur, 2)
	if err := sh.check(2, cur); err != nil {
		t.Fatalf("bumped content rejected: %v", err)
	}

	if err := sh.check(2, old); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("previous version accepted or misreported: %v", err)
	}
	flipped := append([]byte(nil), cur...)
	flipped[317] ^= 0x10
	if err := sh.check(2, flipped); err == nil || !strings.Contains(err.Error(), "byte 317") {
		t.Errorf("flipped byte accepted or misplaced: %v", err)
	}
	other := make([]byte, 512)
	sh.current(other, 3)
	if err := sh.check(2, other); err == nil {
		t.Error("another block's content accepted")
	}
	if err := sh.check(2, cur[:256]); err == nil {
		t.Error("short read accepted")
	}
	// The same (block, version) under another seed is other content.
	if sh2 := newShadow(43, 4, 512); sh2.check(0, old) == nil {
		t.Error("content does not depend on the seed")
	}
}
