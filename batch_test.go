package tlc

import (
	"reflect"
	"testing"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/machine"
	"tlc/internal/sample"
	"tlc/internal/workload"
)

// scalarStream delivers a generator's instructions through its scalar
// Next alone: NextBatch and NextMems are built from one Next call per
// instruction, so the core's kernels see the reference sequence rather
// than the generator's native batched delivery.
type scalarStream struct {
	g *workload.Generator
}

func (s scalarStream) NextBatch(buf []cpu.Instr) int {
	for i := range buf {
		buf[i] = s.g.Next()
	}
	return len(buf)
}

func (s scalarStream) NextMems(buf []cpu.MemRef, maxInstr uint64) (n int, consumed uint64) {
	for consumed < maxInstr && n < len(buf) {
		in := s.g.Next()
		consumed++
		if in.IsMem {
			buf[n] = cpu.MemRef{Block: in.Block, Store: in.IsStore}
			n++
		}
	}
	return n, consumed
}

// scalarCache hides a design's l2.Warmer implementation (embedding the
// interface does not promote the concrete type's WarmBulk), forcing
// per-block Warm dispatch.
type scalarCache struct {
	l2.Instrumented
}

// equivalencePoint runs one (design, benchmark) pair through PreWarm + Warm
// + a detailed run, with either Next-driven delivery and per-block L2
// installs or the generator's native batches and bulk installs, and
// returns the run Result plus the post-run core and L2 snapshots.
func equivalencePoint(t *testing.T, d Design, spec workload.Spec, scalar bool) (cpu.Result, cpu.State, l2.State) {
	t.Helper()
	const (
		warmInstrs = 150_000
		runInstrs  = 40_000
	)
	inst := build(d, Options{})
	gen := workload.New(spec, 1)
	var cacheArm l2.Cache = inst
	var streamArm cpu.Source = gen
	if scalar {
		cacheArm = scalarCache{inst}
		streamArm = scalarStream{gen}
	}
	core := cpu.New(config.DefaultSystem(), cacheArm)
	gen.PreWarm(cacheArm)
	core.Warm(streamArm, warmInstrs)
	r := core.Run(streamArm, runInstrs)
	snap, ok := inst.(l2.Snapshotter)
	if !ok {
		t.Fatalf("%v does not snapshot", d)
	}
	return r, core.Snapshot(), snap.SnapshotState()
}

// TestBatchedScalarEquivalence is the batched-delivery correctness gate: for
// all twelve benchmarks × all six designs, the generator's native NextBatch
// and NextMems fills with bulk WarmBulk installs produce the identical
// Result and bit-identical post-run L1 and L2 state as the same kernels fed
// one Next call per instruction with per-block L2 installs. The kernels
// themselves are held to the per-instruction reference loops in
// internal/cpu (TestWarmMatchesReference, TestRunMatchesReference).
func TestBatchedScalarEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid; skipped in -short")
	}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			for _, spec := range workload.Specs() {
				sr, sCore, sL2 := equivalencePoint(t, d, spec, true)
				br, bCore, bL2 := equivalencePoint(t, d, spec, false)
				if sr != br {
					t.Errorf("%s: Result diverged:\nscalar  %+v\nbatched %+v", spec.Name, sr, br)
				}
				if !reflect.DeepEqual(sCore, bCore) {
					t.Errorf("%s: post-run L1 state diverged", spec.Name)
				}
				if !reflect.DeepEqual(sL2, bL2) {
					t.Errorf("%s: post-run L2 state diverged", spec.Name)
				}
			}
		})
	}
}

// TestSampledBatchedEquivalence extends the gate to sampled mode: warm
// stretches (NextMems fills) interleaved with detailed intervals must leave
// estimates and machine state identical to Next-driven delivery.
func TestSampledBatchedEquivalence(t *testing.T) {
	benches := []string{"gcc", "equake", "oltp"}
	opt := sample.Options{Intervals: 8, Length: 2000}
	const total = 200_000
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			for _, name := range benches {
				spec, ok := workload.SpecByName(name)
				if !ok {
					t.Fatalf("unknown benchmark %q", name)
				}
				run := func(scalar bool) (sample.Estimate, cpu.State, l2.State) {
					inst := build(d, Options{})
					gen := workload.New(spec, 1)
					var cacheArm l2.Cache = inst
					var streamArm cpu.Source = gen
					if scalar {
						cacheArm = scalarCache{inst}
						streamArm = scalarStream{gen}
					}
					core := cpu.New(config.DefaultSystem(), cacheArm)
					gen.PreWarm(cacheArm)
					core.Warm(streamArm, 100_000)
					est := sample.RunTarget(machine.New([]*cpu.Core{core}, []cpu.Source{streamArm}, nil), total, opt, nil)
					return est, core.Snapshot(), inst.(l2.Snapshotter).SnapshotState()
				}
				sEst, sCore, sL2 := run(true)
				bEst, bCore, bL2 := run(false)
				if !reflect.DeepEqual(sEst, bEst) {
					t.Errorf("%s: sampled estimate diverged:\nscalar  %+v\nbatched %+v", name, sEst, bEst)
				}
				if !reflect.DeepEqual(sCore, bCore) {
					t.Errorf("%s: post-run L1 state diverged", name)
				}
				if !reflect.DeepEqual(sL2, bL2) {
					t.Errorf("%s: post-run L2 state diverged", name)
				}
			}
		})
	}
}

// TestWarmFastPathDoesNotAllocate pins the batched warm loop — generator
// fast path, fused L1 scan, bulk L2 installs — at zero allocations per call
// once the core's reusable buffers exist.
func TestWarmFastPathDoesNotAllocate(t *testing.T) {
	spec, _ := workload.SpecByName("oltp")
	for _, d := range []Design{DesignSNUCA2, DesignTLC} {
		inst := build(d, Options{})
		gen := workload.New(spec, 1)
		core := cpu.New(config.DefaultSystem(), inst)
		gen.PreWarm(inst)
		core.Warm(gen, 200_000) // allocate the batch buffers
		if allocs := testing.AllocsPerRun(10, func() { core.Warm(gen, 50_000) }); allocs != 0 {
			t.Errorf("%v: batched warm allocates %.2f per call, want 0", d, allocs)
		}
	}
}
