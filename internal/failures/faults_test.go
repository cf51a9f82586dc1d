package failures

import (
	"math/rand"
	"reflect"
	"testing"
)

// recordingTarget is a FaultTarget that stores nothing and records what
// the drivers ask of it: 8 devices × 8 stripes × 4 sectors.
type recordingTarget struct {
	failed []int
	bursts []Burst
}

func (*recordingTarget) Geometry() (n, stripes, r, sectorSize int) { return 8, 8, 4, 16 }

func (t *recordingTarget) FailDevice(dev int) error {
	t.failed = append(t.failed, dev)
	return nil
}

func (t *recordingTarget) InjectBurst(dev, start, length int) error {
	t.bursts = append(t.bursts, Burst{Dev: dev, Start: start, Len: length})
	return nil
}

func (t *recordingTarget) FailedDevices() []int { return t.failed }

// TestDrawBurstsDeterministic checks the draw is a pure function of
// rng state: same seed, same plan; and it skips failed devices.
func TestDrawBurstsDeterministic(t *testing.T) {
	dist, err := NewBurstDist(0.9, 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := &recordingTarget{}
	p1 := DrawBursts(a, rand.New(rand.NewSource(7)), 0.05, dist)
	p2 := DrawBursts(a, rand.New(rand.NewSource(7)), 0.05, dist)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed drew different plans")
	}
	if len(p1) == 0 {
		t.Fatal("plan is empty; raise pStart")
	}
	if len(a.bursts) != 0 {
		t.Fatalf("DrawBursts injected %d bursts", len(a.bursts))
	}
	if err := a.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	for _, b := range DrawBursts(a, rand.New(rand.NewSource(7)), 0.05, dist) {
		if b.Dev == 2 {
			t.Fatalf("burst drawn on failed device: %+v", b)
		}
	}
}

// TestInjectBurstsMatchesLegacy checks the split draw+inject path is
// exactly InjectRandomBurstsOn: identical rng consumption, identical
// calls on the target.
func TestInjectBurstsMatchesLegacy(t *testing.T) {
	dist, err := NewBurstDist(0.9, 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	split, legacy := &recordingTarget{}, &recordingTarget{}

	plan := DrawBursts(split, rand.New(rand.NewSource(11)), 0.05, dist)
	lostSplit, err := InjectBursts(split, plan)
	if err != nil {
		t.Fatal(err)
	}
	lostLegacy, err := InjectRandomBurstsOn(legacy, rand.New(rand.NewSource(11)), 0.05, dist)
	if err != nil {
		t.Fatal(err)
	}
	if lostSplit != lostLegacy {
		t.Fatalf("split path lost %d sectors, legacy %d", lostSplit, lostLegacy)
	}
	if !reflect.DeepEqual(split.bursts, plan) || !reflect.DeepEqual(legacy.bursts, plan) {
		t.Fatalf("injected bursts differ from the plan:\nplan   %v\nsplit  %v\nlegacy %v", plan, split.bursts, legacy.bursts)
	}
	total := 0
	for _, b := range plan {
		total += b.Len
	}
	if lostSplit != total {
		t.Fatalf("InjectBursts reported %d sectors, plan sums to %d", lostSplit, total)
	}
}
