package main

// partitions enumerates the ascending coverage vectors with sum s whose
// parts do not exceed maxPart and whose length does not exceed maxLen —
// the configuration space "all possible e for a given s" of §6.2.1.
func partitions(s, maxPart, maxLen int) [][]int {
	var out [][]int
	var cur []int
	var rec func(remaining, min int)
	rec = func(remaining, min int) {
		if remaining == 0 {
			out = append(out, append([]int{}, cur...))
			return
		}
		if len(cur) >= maxLen {
			return
		}
		for v := min; v <= remaining && v <= maxPart; v++ {
			cur = append(cur, v)
			rec(remaining-v, v)
			cur = cur[:len(cur)-1]
		}
	}
	rec(s, 1)
	// Ascending partitions generated with min-first recursion are
	// already sorted ascending within each vector.
	return out
}
