package core

import (
	"testing"
)

// TestDecodeCacheEviction: the per-pattern plan cache must stay bounded
// under pattern churn, and churn must not evict the plan of a pattern in
// use: one cached just before the cache fills still hits after.
func TestDecodeCacheEviction(t *testing.T) {
	c, err := New(Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// More distinct two-sector patterns than the cache holds.
	var patterns [][]Cell
	for col := 0; col < c.N() && len(patterns) < maxDecodeCacheEntries+50; col++ {
		for row := 0; row < c.R() && len(patterns) < maxDecodeCacheEntries+50; row++ {
			for col2 := col; col2 < c.N() && len(patterns) < maxDecodeCacheEntries+50; col2++ {
				patterns = append(patterns, []Cell{{Col: col, Row: row}, {Col: col2, Row: (row + 1) % c.R()}})
			}
		}
	}
	kept := patterns[maxDecodeCacheEntries-1]
	var keptPlan *plan
	for i, lost := range patterns {
		pl, err := c.repairPlan(lost)
		if err != nil {
			t.Fatal(err)
		}
		if i == maxDecodeCacheEntries-1 {
			keptPlan = pl
		}
	}
	c.decodeMu.Lock()
	size := len(c.decodeCache) + len(c.decodeOld)
	c.decodeMu.Unlock()
	if size > maxDecodeCacheEntries {
		t.Errorf("cache grew to %d entries (cap %d)", size, maxDecodeCacheEntries)
	}
	// A hit returns the cached plan; a miss compiles a new one.
	if pl, err := c.repairPlan(kept); err != nil || pl != keptPlan {
		t.Errorf("the plan of %v, cached just before the cache filled, was evicted by the %d patterns after it (err %v)",
			kept, len(patterns)-maxDecodeCacheEntries, err)
	}
}

// TestUnrecoverableCached: unrecoverable verdicts are cached as nil and
// repeat queries stay consistent.
func TestUnrecoverableCached(t *testing.T) {
	c := exemplary(t, Inside)
	var lost []Cell
	for col := 0; col < 3; col++ {
		for row := 0; row < c.R(); row++ {
			lost = append(lost, Cell{Col: col, Row: row})
		}
	}
	for i := 0; i < 3; i++ {
		ok, err := c.CanRecover(lost)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("3 chunks recoverable with m=2")
		}
	}
}
