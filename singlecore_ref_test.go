package tlc

// The single-core run path as it stood before single-core runs became
// the one-core machine: a cpu.Core driven directly over its
// workload.Generator, with its own prepare, restore, full, uniform and
// phase arms. It is kept verbatim (renamed ref*) as the oracle
// TestCMPSingleCoreEquivalence holds the one pipeline to. It shares the
// reporting helpers (assemble, the phase observer, calibratePhase) with
// the pipeline; what it pins is the code around them.

import (
	"fmt"
	"reflect"
	"testing"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/sample"
	"tlc/internal/snapshot"
	"tlc/internal/stats"
	"tlc/internal/workload"
)

// refPrepare builds the machine for a run and brings it to measured-interval
// start: post-warm cache state with the generator positioned (and seeded)
// for the timed stream. Warm-up restores from opt.Checkpoints when
// possible, re-executing (and storing the result) otherwise. A non-nil
// error means opt.Cancel aborted the warm-up; the half-warm machine is
// discarded, never checkpointed.
func refPrepare(d Design, spec workload.Spec, opt Options) (l2.Instrumented, *cpu.Core, *workload.Generator, error) {
	sys := config.DefaultSystem()
	inst := build(d, opt)
	warmSeed, warm := warmPlan(spec, opt)
	gen := workload.New(spec, warmSeed)
	core := cpu.New(sys, inst)
	core.SetFast(opt.fidelity() == FidelityFast)
	core.SetCancel(opt.Cancel)
	// The design's registry becomes the run's: the core and the generator
	// publish alongside the cache layers.
	core.RegisterMetrics(inst.Metrics())
	gen.RegisterMetrics(inst.Metrics())

	key := snapshot.Key{Config: configHash(d, spec, CMPConfig{Cores: 1}, opt.fidelity()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
	restored := false
	if opt.Checkpoints != nil {
		if ckp, ok := opt.Checkpoints.Get(key); ok {
			restored = refRestoreCheckpoint(ckp, core, inst, gen)
			if restored && ckp.Lanes {
				// Provenance marker: this run skipped warm-up thanks to a
				// lane-parallel pass. Registered only on lane-restored runs,
				// so scalar and lane artifacts diff clean on shared names.
				inst.Metrics().CounterFunc("sim.lanes.restored", func() uint64 { return 1 })
			}
		}
	}
	if !restored {
		// Pre-warm installs the whole footprint so capacity state matches
		// a long-running process, then the trace warm-up establishes
		// recency and migration steady state.
		gen.PreWarm(inst)
		core.Warm(gen, warm)
		if err := core.CancelErr(); err != nil {
			// An aborted warm-up leaves the machine mid-stream: surface the
			// cancellation and, critically, keep the half-warm state out of
			// the checkpoint store.
			return nil, nil, nil, fmt.Errorf("tlc: %v %s warm-up cancelled: %w", d, spec.Name, err)
		}
		if opt.Checkpoints != nil {
			if snap, ok := inst.(l2.Snapshotter); ok {
				opt.Checkpoints.Put(key, snapshot.Checkpoint{
					Core: core.Snapshot(),
					L2:   snap.SnapshotState(),
					Gen:  gen.State(),
				})
			}
		}
	}
	if opt.Seed != warmSeed {
		// The timed interval measures its own stream: decorrelate it from
		// the (shared) warm-up stream.
		gen.Reseed(opt.Seed)
	}
	// The generator's counters, like every other metric, cover only the
	// timed interval — whether warm-up ran or a checkpoint skipped it.
	gen.ResetCounters()
	return inst, core, gen, nil
}

// refRestoreCheckpoint applies a stored checkpoint; a false return (type or
// geometry mismatch, e.g. a stale disk entry) falls back to re-warming.
func refRestoreCheckpoint(ckp snapshot.Checkpoint, core *cpu.Core, c l2.Cache, gen *workload.Generator) bool {
	if ckp.CMP != nil {
		// Provenance: a CMP machine's checkpoint never restores into a
		// single-core run.
		return false
	}
	snap, ok := c.(l2.Snapshotter)
	if !ok {
		return false
	}
	if err := core.Restore(ckp.Core); err != nil {
		return false
	}
	if err := snap.RestoreState(ckp.L2); err != nil {
		return false
	}
	gen.SetState(ckp.Gen)
	return true
}

// refRunSpec is RunSpec's single-core full-mode arm.
func refRunSpec(d Design, spec workload.Spec, opt Options) (Result, error) {
	inst, core, gen, err := refPrepare(d, spec, opt)
	if err != nil {
		return Result{}, err
	}
	cr := core.Run(gen, opt.RunInstructions)
	if err := core.CancelErr(); err != nil {
		return Result{}, fmt.Errorf("tlc: %v %s run cancelled: %w", d, spec.Name, err)
	}
	res := assemble(d, spec.Name, inst.Metrics(), cr.Instructions, cr.Cycles)
	res.Instructions = cr.Instructions
	res.Cycles = uint64(cr.Cycles)
	res.IPC = cr.IPC()
	attachErrorBound(&res, opt)
	emitMetrics(d, spec.Name, inst, cr.Cycles, opt)
	return res, nil
}

// refCoreTarget adapts the single-core (core, stream) pair to
// sample.Target, preserving the exact call sequence sampled runs made.
type refCoreTarget struct {
	core *cpu.Core
	s    cpu.Source
}

func (t refCoreTarget) Warm(n uint64) { t.core.Warm(t.s, n) }

func (t refCoreTarget) Interval(i int, n uint64) cpu.Result {
	if i == 0 {
		return t.core.RunFrom(t.s, n, 0)
	}
	// Later intervals resume the pipeline rather than restarting it: the
	// measured CPI then carries no per-interval pipeline-refill/drain
	// transient, which would otherwise bias the estimate up by a fixed
	// cost per interval.
	return t.core.Resume(t.s, n)
}

// refRunSpecSampled is RunSpecSampled's single-core arm (uniform mode here,
// phase mode in refRunSpecPhased). opt must be valid.
func refRunSpecSampled(d Design, spec workload.Spec, opt Options) (SampledResult, error) {
	sopt := opt.SampleOptions()
	if sopt.Phase() {
		return refRunSpecPhased(d, spec, opt, sopt)
	}
	inst, core, gen, err := refPrepare(d, spec, opt)
	if err != nil {
		return SampledResult{}, err
	}
	reg := inst.Metrics()

	// Per-interval L2 stat deltas feed the lookup-latency and miss-rate
	// confidence intervals.
	st := inst.L2Stats()
	var lookup, missRate stats.Sample
	var prevLookupSum, prevLookupCount, prevMisses uint64
	// Generic per-counter deltas extend the CIs to every registered
	// counter. The name list and the value buffers are fixed up front so
	// the per-interval observer allocates nothing.
	names := reg.CounterNames()
	counterSamples := make([]stats.Sample, len(names))
	prevVals := make([]uint64, len(names))
	curVals := make([]uint64, 0, len(names))
	prevVals = reg.AppendCounterValues(prevVals[:0], names)
	est := sample.RunTarget(refCoreTarget{core, gen}, opt.RunInstructions, sopt, func(iv sample.Interval) {
		dSum := st.Lookup.Sum() - prevLookupSum
		dCount := st.Lookup.Count() - prevLookupCount
		dMiss := st.Misses.Value() - prevMisses
		prevLookupSum, prevLookupCount, prevMisses = st.Lookup.Sum(), st.Lookup.Count(), st.Misses.Value()
		if dCount > 0 {
			lookup.Observe(float64(dSum) / float64(dCount))
		}
		missRate.Observe(1000 * float64(dMiss) / float64(iv.Result.Instructions))
		curVals = reg.AppendCounterValues(curVals[:0], names)
		for i, v := range curVals {
			counterSamples[i].Observe(1000 * float64(v-prevVals[i]) / float64(iv.Result.Instructions))
		}
		prevVals, curVals = curVals, prevVals
	})

	if err := core.CancelErr(); err != nil {
		return SampledResult{}, fmt.Errorf("tlc: %v %s run cancelled: %w", d, spec.Name, err)
	}
	estCycles := est.Cycles()
	// The L2 counters cover only the detailed instructions; rates are
	// computed over that denominator, and the absolute load/store counts
	// are scaled to the full run like the cycle estimate. Power and
	// utilization integrate over the detailed window: the clock only
	// advances during detailed intervals, so FinalClock is that window's
	// span.
	res := assemble(d, spec.Name, reg, est.Detailed, est.FinalClock)
	res.Instructions = opt.RunInstructions
	res.Cycles = uint64(estCycles + 0.5)
	res.L2Loads = scaleCount(res.L2Loads, opt.RunInstructions, est.Detailed)
	res.L2Stores = scaleCount(res.L2Stores, opt.RunInstructions, est.Detailed)
	if estCycles > 0 {
		res.IPC = float64(opt.RunInstructions) / estCycles
	}
	mcis := make([]MetricCI, len(names))
	for i, n := range names {
		mcis[i] = MetricCI{Name: n, MeanPer1K: counterSamples[i].Mean(), CI95: counterSamples[i].CI95()}
	}
	attachErrorBound(&res, opt)
	emitMetrics(d, spec.Name, inst, est.FinalClock, opt)
	return SampledResult{
		Result:               res,
		CyclesCI:             est.CyclesCI(),
		MeanLookupCI:         lookup.CI95(),
		MissesPer1KCI:        missRate.CI95(),
		Intervals:            est.Intervals,
		DetailedInstructions: est.Detailed,
		Metrics:              mcis,
	}, nil
}

// refComputePhaseProfile runs the profiling pass over a prepared
// single-core generator: save the stream state, drive every window through
// shadow caches, rewind.
func refComputePhaseProfile(key string, gen *workload.Generator, opt Options) (sample.Profile, error) {
	st := gen.State()
	prof := cpu.NewPhaseProfiler(config.DefaultSystem())
	lens := sample.WindowLengths(opt.RunInstructions, opt.PhaseWindows)
	feats := make([][]float64, len(lens))
	instr := make([]uint64, len(lens))
	for w, n := range lens {
		f := prof.Window(gen, n)
		feats[w] = f.Vector()
		instr[w] = f.Instr
	}
	gen.SetState(st)
	gen.ResetCounters()
	return sample.BuildProfile(key, opt.RunInstructions, opt.SampleOptions(), feats, instr, opt.Cancel)
}

// refRunSpecPhased is RunSpecSampled's single-core phase-mode arm: profile
// (or fetch) the phase clustering, time one representative window per
// cluster, then calibrate the cycle estimate against exact covariate
// totals.
func refRunSpecPhased(d Design, spec workload.Spec, opt Options, sopt sample.Options) (SampledResult, error) {
	inst, core, gen, err := refPrepare(d, spec, opt)
	if err != nil {
		return SampledResult{}, err
	}
	prof, cached, err := phaseProfileFor(spec, opt, sopt, func(key string) (sample.Profile, error) {
		return refComputePhaseProfile(key, gen, opt)
	})
	if err != nil {
		return SampledResult{}, fmt.Errorf("tlc: %v %s phase profiling cancelled: %w", d, spec.Name, err)
	}
	reg := inst.Metrics()
	registerPhaseMetrics(reg, prof, cached)
	obs, observe := newPhaseObserver(reg, inst, prof)
	// Count functional L2 misses across the timed region's warm stretches;
	// added to the detailed counter they give the region's exact miss total.
	core.SetWarmMissCounting(true)
	warmBase := core.WarmL2Misses()
	est := sample.RunPhased(refCoreTarget{core, gen}, opt.RunInstructions, sopt, prof, observe)
	if err := core.CancelErr(); err != nil {
		return SampledResult{}, fmt.Errorf("tlc: %v %s run cancelled: %w", d, spec.Name, err)
	}
	totL2 := float64(reg.CounterValue("l2.misses")) + float64(core.WarmL2Misses()-warmBase)
	calibratePhase(&est, prof, obs, totL2, float64(reg.CounterValue("workload.mispredicts")))
	return assemblePhased(d, spec, opt, inst, est, obs, 1)
}

// TestCMPSingleCoreEquivalence holds the one run pipeline, at one core, to
// the single-core path it replaced: the same Result and the same full
// registry snapshot in full mode for every design × benchmark, and the
// same SampledResult (metric CIs included) and snapshot in uniform and
// phase mode for every design on two benchmarks. The sampled points also
// cross checkpoints through a disk store both ways, so either path
// restores what the other wrote.
func TestCMPSingleCoreEquivalence(t *testing.T) {
	withSnap := func(o Options, snap *MetricsSnapshot) Options {
		o.OnMetrics = func(ev MetricsEvent) { *snap = ev.Snapshot }
		return o
	}
	opt := cmpOptions()
	for _, d := range Designs() {
		for _, spec := range workload.Specs() {
			var wantSnap, gotSnap MetricsSnapshot
			want, err := refRunSpec(d, spec, withSnap(opt, &wantSnap))
			if err != nil {
				t.Fatalf("%v/%s reference: %v", d, spec.Name, err)
			}
			got, err := RunSpec(d, spec, withSnap(opt, &gotSnap))
			if err != nil {
				t.Fatalf("%v/%s: %v", d, spec.Name, err)
			}
			if got != want {
				t.Fatalf("%v/%s: Result diverged:\ngot  %+v\nwant %+v", d, spec.Name, got, want)
			}
			if !reflect.DeepEqual(gotSnap, wantSnap) {
				t.Fatalf("%v/%s: registry snapshots differ", d, spec.Name)
			}
		}
	}

	uniform := cmpOptions()
	uniform.SampleIntervals, uniform.SampleLength = 5, 4_000
	phased := cmpOptions()
	phased.PhaseWindows, phased.PhaseClusters = 20, 6
	for _, o := range []Options{uniform, phased} {
		for _, d := range Designs() {
			for _, name := range []string{"gcc", "apache"} {
				spec, _ := workload.SpecByName(name)
				label := fmt.Sprintf("%v/%s phase=%v", d, name, o.PhaseWindows > 0)
				// Each arm warms and writes a disk checkpoint that the
				// other then restores through a fresh store.
				var snaps [4]MetricsSnapshot
				var res [4]SampledResult
				refDir, newDir := t.TempDir(), t.TempDir()
				runs := []struct {
					ref bool
					dir string
				}{{true, refDir}, {false, refDir}, {false, newDir}, {true, newDir}}
				for i, r := range runs {
					ro := withSnap(o, &snaps[i])
					ro.Checkpoints = NewCheckpointStore(0, r.dir)
					var err error
					if r.ref {
						res[i], err = refRunSpecSampled(d, spec, ro)
					} else {
						res[i], err = RunSpecSampled(d, spec, ro)
					}
					if err != nil {
						t.Fatalf("%s run %d: %v", label, i, err)
					}
					if st := ro.Checkpoints.Stats(); (i%2 == 1) != (st.Hits == 1) {
						t.Fatalf("%s run %d: store stats %+v", label, i, st)
					}
				}
				for i := 1; i < len(res); i++ {
					if !reflect.DeepEqual(res[i], res[0]) {
						t.Fatalf("%s: run %d SampledResult diverged:\ngot  %+v\nwant %+v", label, i, res[i].Result, res[0].Result)
					}
					if !reflect.DeepEqual(snaps[i], snaps[0]) {
						t.Fatalf("%s: run %d registry snapshot diverged", label, i)
					}
				}
			}
		}
	}
}
