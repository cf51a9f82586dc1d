package main

import (
	"reflect"
	"testing"
)

func TestPartitions(t *testing.T) {
	got := partitions(4, 4, 6)
	want := [][]int{{1, 1, 1, 1}, {1, 1, 2}, {1, 3}, {2, 2}, {4}}
	if len(got) != len(want) {
		t.Fatalf("partitions(4) = %v", got)
	}
	seen := map[string]bool{}
	for _, p := range got {
		seen[keyOf(p)] = true
	}
	for _, p := range want {
		if !seen[keyOf(p)] {
			t.Errorf("missing partition %v", p)
		}
	}
	// Part cap respected.
	for _, p := range partitions(6, 2, 10) {
		for _, v := range p {
			if v > 2 {
				t.Errorf("part %d exceeds cap in %v", v, p)
			}
		}
	}
	// Length cap respected.
	for _, p := range partitions(6, 6, 2) {
		if len(p) > 2 {
			t.Errorf("partition %v exceeds length cap", p)
		}
	}
}

func keyOf(p []int) string {
	s := ""
	for _, v := range p {
		s += string(rune('0' + v))
	}
	return s
}

func TestPartitionsAscending(t *testing.T) {
	for _, p := range partitions(7, 7, 7) {
		if !ascending(p) {
			t.Errorf("partition %v not ascending", p)
		}
	}
}

func ascending(p []int) bool {
	ok := true
	for i := 1; i < len(p); i++ {
		if p[i] < p[i-1] {
			ok = false
		}
	}
	return ok
}

func TestPartitionsMatchReflect(t *testing.T) {
	// Small closed-form check: partitions of 3.
	got := partitions(3, 3, 3)
	want := [][]int{{1, 1, 1}, {1, 2}, {3}}
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Errorf("partitions(3) = %v, want %v", got, want)
	}
}

func normalize(ps [][]int) map[string]bool {
	m := map[string]bool{}
	for _, p := range ps {
		m[keyOf(p)] = true
	}
	return m
}
