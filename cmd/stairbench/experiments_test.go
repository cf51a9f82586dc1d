package main

import "testing"

// TestAnalyticExperimentsRun runs every experiment that computes its
// table instead of timing or simulating something — the paper's tables
// and cost, update and reliability figures — through the registry entry
// `-experiment` dispatches to, so a dropped registration or a panic in a
// table printer fails here. The simulated runs (monte, scenario) are
// deliberately not on the list; the paper's speed figures are the root
// package's BenchmarkFig11Encode, BenchmarkFig12StripeSize and
// BenchmarkFig13* rows.
func TestAnalyticExperimentsRun(t *testing.T) {
	registered := map[string]func() error{}
	for _, e := range experiments {
		registered[e.name] = e.run
	}
	for _, name := range []string{
		"table2", "table3", "fig9", "fig10", "fig14", "fig15",
		"fig17", "fig18", "fig19a", "fig19b", "narr", "idr", "ablation",
	} {
		t.Run(name, func(t *testing.T) {
			run, ok := registered[name]
			if !ok {
				t.Fatal("not registered")
			}
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
