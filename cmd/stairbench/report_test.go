package main

import (
	"bytes"
	"os"
	"testing"
)

// TestCorruptStoreReportIsNotOverwritten: every experiment that merges
// into BENCH_store.json writes the whole file back, so a report it cannot
// parse must fail the run up front and stay on disk untouched — not be
// taken for empty and replaced, erasing the other experiments' sections.
func TestCorruptStoreReportIsNotOverwritten(t *testing.T) {
	t.Chdir(t.TempDir())
	if report, err := loadStoreReport(); err != nil || report.Results != nil || report.Cluster != nil || report.Scenario != nil {
		t.Fatalf("missing file: got %+v, %v; want an empty report", report, err)
	}
	corrupt := []byte(`{"config": {"n": 8}, "results": [`)
	if err := os.WriteFile("BENCH_store.json", corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(options) error{
		"store": runStore, "cluster": runCluster, "scenario": runScenario,
	} {
		if err := run(options{stripeMiB: 1}); err == nil {
			t.Errorf("%s: ran to completion over a corrupt BENCH_store.json", name)
		}
		if got, err := os.ReadFile("BENCH_store.json"); err != nil || !bytes.Equal(got, corrupt) {
			t.Errorf("%s: BENCH_store.json was touched (read err %v)", name, err)
		}
	}
}
