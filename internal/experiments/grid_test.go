package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tlc"
	"tlc/internal/workload"
)

// storeSuite is tinySuite with a checkpoint store, so its grids get lane
// passes.
func storeSuite() *Suite {
	opt := tinySuite().Opt
	opt.Checkpoints = tlc.NewCheckpointStore(0, "")
	return NewSuite(opt)
}

// TestGridReleasesPointsAfterTheirPass: every point of a lane-eligible grid
// runs only after its group's pass has stored its checkpoint. A point that
// ran early would warm itself scalar and store a plain checkpoint (the pass
// would then skip that lane), so sim.lanes.restored on every point is the
// proof.
func TestGridReleasesPointsAfterTheirPass(t *testing.T) {
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}
	benches := []string{"perl", "oltp", "mcf"}
	for _, par := range []int{1, 4} {
		s := storeSuite()
		if err := s.RunAll(designs, benches, par); err != nil {
			t.Fatal(err)
		}
		for _, d := range designs {
			for _, b := range benches {
				snap, ok := s.RunMetrics(d, b)
				if !ok {
					t.Fatalf("par %d: %v/%s never ran", par, d, b)
				}
				if got := snap.Counters()["sim.lanes.restored"]; got != 1 {
					t.Errorf("par %d: %v/%s sim.lanes.restored = %d, want 1 (ran before its pass)", par, d, b, got)
				}
			}
		}
		m := s.Metrics()
		if m.LaneGroups != uint64(len(benches)) || m.LanesWarmed != uint64(len(designs)*len(benches)) {
			t.Errorf("par %d: %d groups / %d lanes warmed, want %d / %d",
				par, m.LaneGroups, m.LanesWarmed, len(benches), len(designs)*len(benches))
		}
		if m.LaneWall <= 0 || m.LaneBatches == 0 || m.LaneScalarPoints != 0 {
			t.Errorf("par %d: lane wall %v, batches %d, scalar points %d", par, m.LaneWall, m.LaneBatches, m.LaneScalarPoints)
		}
	}
}

// TestGridCancelMidGrid: cancellation that fires part-way through a grid
// surfaces as the grid's error, the grid still returns, and no pass after
// the cancellation warms anything.
func TestGridCancelMidGrid(t *testing.T) {
	var cancelled atomic.Bool
	opt := tlc.Options{WarmInstructions: 10_000, RunInstructions: 50_000, Seed: 1}
	opt.Checkpoints = tlc.NewCheckpointStore(0, "")
	opt.Cancel = func() error {
		if cancelled.Load() {
			return context.Canceled
		}
		return nil
	}
	s := NewSuite(opt)
	s.OnRun = func(RunEvent) { cancelled.Store(true) }
	benches := []string{"perl", "oltp", "mcf"}
	err := s.RunAll([]tlc.Design{tlc.DesignSNUCA2, tlc.DesignTLC}, benches, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll = %v, want a cancellation error", err)
	}
	if m := s.Metrics(); m.LaneGroups != 1 {
		t.Errorf("%d passes ran, want 1 (the rest start after the cancellation)", m.LaneGroups)
	}
}

// TestGridFirstErrorIsLowestIndex: every point is attempted despite
// failures, and the grid reports the failing point earliest in grid order,
// whatever order the workers finished in.
func TestGridFirstErrorIsLowestIndex(t *testing.T) {
	points := make([]GridPoint, 16)
	var ran atomic.Int64
	err := Grid{Points: points, Run: func(i int) error {
		ran.Add(1)
		if i == 3 || i == 11 {
			return fmt.Errorf("point %d failed", i)
		}
		return nil
	}}.Execute(4)
	if err == nil || err.Error() != "point 3 failed" {
		t.Fatalf("Execute = %v, want point 3's error", err)
	}
	if ran.Load() != int64(len(points)) {
		t.Errorf("%d of %d points attempted", ran.Load(), len(points))
	}
}

// TestGridWithoutStore: points with no checkpoint store cannot carry a
// pass's warm-up, so they are runnable at once, no pass runs, and each is
// counted as scalar. NoLanes runs the points the same way and counts
// nothing.
func TestGridWithoutStore(t *testing.T) {
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignTLC}
	benches := []string{"perl", "oltp"}
	s := tinySuite()
	if err := s.RunAll(designs, benches, 2); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	n := uint64(len(designs) * len(benches))
	if m.Simulated != n || m.LaneGroups != 0 || m.LaneScalarPoints != n {
		t.Errorf("simulated %d, groups %d, scalar points %d; want %d, 0, %d", m.Simulated, m.LaneGroups, m.LaneScalarPoints, n, n)
	}

	off := storeSuite()
	off.NoLanes = true
	if err := off.RunAll(designs, benches, 2); err != nil {
		t.Fatal(err)
	}
	if m := off.Metrics(); m.Simulated != n || m.LaneGroups != 0 || m.LaneScalarPoints != 0 {
		t.Errorf("NoLanes: simulated %d, groups %d, scalar points %d; want %d, 0, 0", m.Simulated, m.LaneGroups, m.LaneScalarPoints, n)
	}
}

// TestGridPassOrder pins the pass order — effective warm length, shortest
// first, ties in first-occurrence order — and that released points run
// before the next pass starts: at one worker, each group's points run
// right after its pass, with exactly that many passes counted.
func TestGridPassOrder(t *testing.T) {
	store := tlc.NewCheckpointStore(0, "")
	var points []GridPoint
	for _, c := range []struct {
		bench string
		warm  uint64
	}{{"perl", 30_000}, {"oltp", 10_000}, {"mcf", 20_000}, {"gcc", 10_000}} {
		opt := tinySuite().Opt
		opt.WarmInstructions = c.warm
		opt.Checkpoints = store
		for _, d := range []tlc.Design{tlc.DesignSNUCA2, tlc.DesignTLC} {
			points = append(points, GridPoint{Design: d, Bench: c.bench, Opt: opt})
		}
	}
	var (
		mu    sync.Mutex
		ran   []string
		lanes LaneCounters
	)
	err := Grid{Points: points, Lanes: &lanes, Run: func(i int) error {
		mu.Lock()
		ran = append(ran, fmt.Sprintf("%s@%d", points[i].Bench, lanes.Groups.Load()))
		mu.Unlock()
		return nil
	}}.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"oltp@1", "oltp@1", "gcc@2", "gcc@2", "mcf@3", "mcf@3", "perl@4", "perl@4"}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Errorf("run order (bench@passes done) %v, want %v", ran, want)
	}

	// Automatic warm lengths order the paper's grid the same way, and the
	// order does not depend on anything but the grid.
	opt := tlc.DefaultOptions()
	opt.Checkpoints = store
	groups := NewLanePlanner().Plan(planPoints(tlc.Designs(), tlc.Benchmarks(), opt))
	order := passOrder(groups)
	if len(order) != len(tlc.Benchmarks()) {
		t.Fatalf("%d passes for %d benchmarks", len(order), len(tlc.Benchmarks()))
	}
	for k := 1; k < len(order); k++ {
		a, b := &groups[order[k-1]], &groups[order[k]]
		wa, wb := autoWarm(t, a.Bench), autoWarm(t, b.Bench)
		if wa > wb || (wa == wb && order[k-1] > order[k]) {
			t.Errorf("pass %d (%s, %d) before pass %d (%s, %d)", k-1, a.Bench, wa, k, b.Bench, wb)
		}
	}
	if again := passOrder(groups); fmt.Sprint(again) != fmt.Sprint(order) {
		t.Errorf("pass order changed between calls: %v then %v", order, again)
	}
}

func autoWarm(t *testing.T, bench string) uint64 {
	spec, ok := workload.SpecByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	return spec.AutoWarmInstructions()
}
