package tlc

import (
	"reflect"
	"testing"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/snapshot"
	"tlc/internal/workload"
)

// laneTestOptions is the reduced scale the lane equivalence grid runs at —
// the same lengths as the batched/scalar equivalence gate.
func laneTestOptions() Options {
	return Options{WarmInstructions: 150_000, RunInstructions: 40_000, Seed: 1}
}

// TestLaneScalarEquivalence is the lane engine's correctness gate: for all
// twelve benchmarks × all six designs, a run restored from a lane-parallel
// warm pass (one shared stream warming every design at once) produces the
// identical Result as an independent scalar run that warmed itself.
func TestLaneScalarEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid; skipped in -short")
	}
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			laneOpt := laneTestOptions()
			laneOpt.Checkpoints = NewCheckpointStore(0, "")
			st, err := WarmLanes(Designs(), bench, laneOpt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Lanes != len(Designs()) {
				t.Fatalf("lane pass warmed %d lanes, want %d", st.Lanes, len(Designs()))
			}
			if st.Batches == 0 {
				t.Fatal("lane pass consumed no batches")
			}
			for _, d := range Designs() {
				want, err := Run(d, bench, laneTestOptions())
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(d, bench, laneOpt)
				if err != nil {
					t.Fatal(err)
				}
				if want != got {
					t.Errorf("%v: lane-warmed run diverged:\nscalar %+v\nlane   %+v", d, want, got)
				}
			}
		})
	}
}

// TestLaneScalarEquivalenceSampled extends the gate to sampled mode:
// restoring a lane-warmed checkpoint under SMARTS-style sampling must leave
// every estimate and confidence interval identical to a self-warmed run.
// The lane-restored run's registry carries one extra provenance counter
// (sim.lanes.restored), which is excluded from the per-counter comparison.
func TestLaneScalarEquivalenceSampled(t *testing.T) {
	benches := []string{"gcc", "equake", "oltp"}
	base := laneTestOptions()
	base.RunInstructions = 200_000
	base.SampleIntervals = 8
	base.SampleLength = 2000
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			laneOpt := base
			laneOpt.Checkpoints = NewCheckpointStore(0, "")
			if _, err := WarmLanes(Designs(), bench, laneOpt); err != nil {
				t.Fatal(err)
			}
			for _, d := range Designs() {
				want, err := RunSampled(d, bench, base)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunSampled(d, bench, laneOpt)
				if err != nil {
					t.Fatal(err)
				}
				got.Metrics = dropMetricCI(got.Metrics, "sim.lanes.restored")
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%v: sampled lane-warmed run diverged:\nscalar %+v\nlane   %+v", d, want, got)
				}
			}
		})
	}
}

func dropMetricCI(ms []MetricCI, name string) []MetricCI {
	out := ms[:0]
	for _, m := range ms {
		if m.Name != name {
			out = append(out, m)
		}
	}
	return out
}

// TestLaneCheckpointInterop pins the snapshot interaction both ways, per
// config key, across all six designs: a lane pass stores checkpoints
// bit-identical (bar the provenance flag) to the ones scalar warm-up
// stores, a lane pass over an already scalar-warmed store is a no-op, and
// runs restoring either kind produce identical results.
func TestLaneCheckpointInterop(t *testing.T) {
	const bench = "mcf"
	spec, ok := workload.SpecByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	opt := laneTestOptions()

	laneOpt := opt
	laneOpt.Checkpoints = NewCheckpointStore(0, "")
	st, err := WarmLanes(Designs(), bench, laneOpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lanes != len(Designs()) {
		t.Fatalf("lane pass warmed %d lanes, want %d", st.Lanes, len(Designs()))
	}

	scalarOpt := opt
	scalarOpt.Checkpoints = NewCheckpointStore(0, "")
	for _, d := range Designs() {
		if _, err := Run(d, bench, scalarOpt); err != nil {
			t.Fatal(err)
		}
	}

	warmSeed, warm := warmPlan(spec, opt)
	for _, d := range Designs() {
		key := snapshot.Key{Config: configHash(d, spec, opt.cmpConfig(), opt.fidelity()), Bench: bench, Seed: warmSeed, Warm: warm}
		lc, ok := laneOpt.Checkpoints.Get(key)
		if !ok {
			t.Fatalf("%v: lane store has no checkpoint", d)
		}
		sc, ok := scalarOpt.Checkpoints.Get(key)
		if !ok {
			t.Fatalf("%v: scalar store has no checkpoint", d)
		}
		if !lc.Lanes || sc.Lanes {
			t.Errorf("%v: provenance flags wrong: lane=%v scalar=%v", d, lc.Lanes, sc.Lanes)
		}
		if !reflect.DeepEqual(lc.Core, sc.Core) {
			t.Errorf("%v: lane and scalar checkpoints differ in core state", d)
		}
		if !reflect.DeepEqual(lc.L2, sc.L2) {
			t.Errorf("%v: lane and scalar checkpoints differ in L2 state", d)
		}
		if !reflect.DeepEqual(lc.Gen, sc.Gen) {
			t.Errorf("%v: lane and scalar checkpoints differ in generator state", d)
		}
	}

	// A lane pass over the scalar-warmed store finds every key present and
	// shares nothing — exactly the skip path grid replans exercise.
	st, err = WarmLanes(Designs(), bench, scalarOpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lanes != 0 || st.Batches != 0 {
		t.Errorf("replanned lane pass ran anyway: %+v", st)
	}

	// Cross-restore: a run restoring the lane-warmed checkpoint and one
	// restoring the scalar-warmed checkpoint are the same run.
	for _, d := range Designs() {
		lr, err := Run(d, bench, laneOpt)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := Run(d, bench, scalarOpt)
		if err != nil {
			t.Fatal(err)
		}
		if lr != sr {
			t.Errorf("%v: cross-restored runs diverged:\nlane   %+v\nscalar %+v", d, lr, sr)
		}
	}
}

// TestWarmLanesNoOps pins the accelerator contract: no checkpoint store or
// fewer than two distinct lanes means the pass does nothing.
func TestWarmLanesNoOps(t *testing.T) {
	opt := laneTestOptions()
	if st, err := WarmLanes(Designs(), "mcf", opt); err != nil || st.Lanes != 0 {
		t.Errorf("storeless pass: stats %+v err %v, want zero stats", st, err)
	}
	opt.Checkpoints = NewCheckpointStore(0, "")
	if st, err := WarmLanes([]Design{DesignTLC}, "mcf", opt); err != nil || st.Lanes != 0 {
		t.Errorf("single-design pass: stats %+v err %v, want zero stats", st, err)
	}
	// Duplicates collapse to one lane — still nothing to share.
	if st, err := WarmLanes([]Design{DesignTLC, DesignTLC}, "mcf", opt); err != nil || st.Lanes != 0 {
		t.Errorf("duplicate-design pass: stats %+v err %v, want zero stats", st, err)
	}
	if _, err := WarmLanes(Designs(), "nosuch", opt); err == nil {
		t.Error("unknown benchmark: want error")
	}
}

// TestLaneWarmDoesNotAllocate pins the lane warm loop — shared stream fast
// path, SoA sweep, per-lane bulk L2 installs — at zero allocations per call
// once the warmer's buffers exist.
func TestLaneWarmDoesNotAllocate(t *testing.T) {
	spec, _ := workload.SpecByName("oltp")
	designs := []Design{DesignSNUCA2, DesignTLC, DesignTLCOpt500}
	gen := workload.New(spec, 1)
	cores := make([]*cpu.Core, len(designs))
	for i, d := range designs {
		inst := build(d, Options{})
		gen.PreWarm(inst)
		cores[i] = cpu.New(config.DefaultSystem(), inst)
	}
	lw := cpu.NewLaneWarmer(cores)
	if err := lw.Warm(gen, 200_000, nil); err != nil { // allocate the batch buffers
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := lw.Warm(gen, 50_000, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("lane warm allocates %.2f per call, want 0", allocs)
	}
}
