package tlc

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"tlc/internal/workload"
)

// phaseOptions is the bench-scale shape the phase tests share: the same
// warm/run lengths as TestSampledModeAccuracy, with the default phase
// shape (40 profiling windows clustered into at most 14 phases; each
// representative times its whole 5000-instruction window).
func phaseOptions() Options {
	return Options{
		WarmInstructions: 2_000_000,
		RunInstructions:  200_000,
		Seed:             1,
		PhaseWindows:     40,
		PhaseClusters:    14,
		SampleLength:     2_000,
	}
}

// TestPhaseSampledAccuracy is the acceptance gate for phase-aware
// sampling: on every benchmark the phased estimate must land within ±3%
// of the full detailed run's cycle count — the same tolerance uniform
// sampling meets with 50 intervals — while timing at most half as many
// detailed intervals (here ≤14, one per cluster, vs 50). The profile
// store is shared across benchmarks so the run also exercises the
// cold-miss path of the cache for each key.
func TestPhaseSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-vs-phased comparison across all benchmarks is slow")
	}
	const tolerance = 0.03
	store := NewCheckpointStore(0, "")
	profiles := NewPhaseProfileStore(0, "")
	for _, b := range Benchmarks() {
		b := b
		t.Run(b, func(t *testing.T) {
			opt := phaseOptions()
			opt.Checkpoints = store
			full, err := Run(DesignTLC, b, Options{
				WarmInstructions: opt.WarmInstructions,
				RunInstructions:  opt.RunInstructions,
				Seed:             opt.Seed,
				Checkpoints:      store,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt.PhaseProfiles = profiles
			phased, err := RunSampled(DesignTLC, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			rel := (float64(phased.Cycles) - float64(full.Cycles)) / float64(full.Cycles)
			if math.Abs(rel) > tolerance {
				t.Errorf("phased cycles %d vs full %d: %+.2f%% error exceeds ±%.0f%%",
					phased.Cycles, full.Cycles, 100*rel, 100*tolerance)
			}
			// The whole point: several times fewer detailed intervals than
			// uniform -sample 50 at the same tolerance.
			if phased.Intervals > 25 {
				t.Errorf("phased run timed %d intervals, want ≤25 (2x fewer than uniform 50)",
					phased.Intervals)
			}
			if phased.Intervals < 2 {
				t.Errorf("phased run timed %d intervals; a real workload has ≥2 phases", phased.Intervals)
			}
			if phased.CyclesCI < 0 || math.IsNaN(phased.CyclesCI) {
				t.Errorf("bad cycles confidence interval %v", phased.CyclesCI)
			}
			// Whole-window intervals: 200k run / 40 windows = 5000
			// instructions per timed representative.
			if phased.DetailedInstructions != uint64(phased.Intervals)*5_000 {
				t.Errorf("detailed instructions %d, want intervals*window = %d",
					phased.DetailedInstructions, uint64(phased.Intervals)*5_000)
			}
		})
	}
}

// TestPhaseProfileCacheEquivalence pins the determinism acceptance
// criterion: a run that hits the profile cache must select exactly the
// intervals a recompute selects and produce a bit-identical SampledResult.
// Three runs — cold store (profiling pass), warm store (memory hit), and
// no store at all (recompute every time) — must agree exactly, and only
// the cache-hit run may carry the sample.phase.profile_cached marker.
func TestPhaseProfileCacheEquivalence(t *testing.T) {
	opt := phaseOptions()
	opt.WarmInstructions = 500_000
	b := Benchmarks()[0]

	profiles := NewPhaseProfileStore(0, "")
	opt.PhaseProfiles = profiles
	cold, err := RunSampled(DesignTLC, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := profiles.Stats(); st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("cold run store stats %+v, want 1 miss / 1 put", st)
	}
	warm, err := RunSampled(DesignTLC, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := profiles.Stats(); st.Hits != 1 {
		t.Fatalf("warm run store stats %+v, want a memory hit", st)
	}

	opt.PhaseProfiles = nil
	bare, err := RunSampled(DesignTLC, b, opt)
	if err != nil {
		t.Fatal(err)
	}

	// The cached marker is the only legitimate difference between the
	// cold and warm runs' metric lists; strip it before comparing.
	strip := func(r SampledResult) SampledResult {
		mcis := r.Metrics[:0:0]
		for _, m := range r.Metrics {
			if m.Name != "sample.phase.profile_cached" {
				mcis = append(mcis, m)
			}
		}
		r.Metrics = mcis
		return r
	}
	if !reflect.DeepEqual(strip(cold), strip(warm)) {
		t.Error("cache-hit run diverged from the run that computed the profile")
	}
	if !reflect.DeepEqual(strip(cold), strip(bare)) {
		t.Error("storeless recompute diverged from the cold-store run")
	}
	hasMarker := func(r SampledResult) bool {
		for _, m := range r.Metrics {
			if m.Name == "sample.phase.profile_cached" {
				return true
			}
		}
		return false
	}
	if hasMarker(cold) || hasMarker(bare) {
		t.Error("profile_cached marker on a run that computed its profile")
	}
	if !hasMarker(warm) {
		t.Error("cache-hit run missing the sample.phase.profile_cached marker")
	}
}

// TestPhaseProfileDiskTier: a fresh store over the same directory reads
// the profile back from disk (DiskHits) and the run stays bit-identical,
// so fleets and repeat invocations share profiling passes through
// -ckptdir.
func TestPhaseProfileDiskTier(t *testing.T) {
	dir := t.TempDir()
	opt := phaseOptions()
	opt.WarmInstructions = 500_000
	b := Benchmarks()[1]

	opt.PhaseProfiles = NewPhaseProfileStore(0, dir)
	want, err := RunSampled(DesignTLC, b, opt)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewPhaseProfileStore(0, dir)
	opt.PhaseProfiles = fresh
	got, err := RunSampled(DesignTLC, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DiskHits != 1 {
		t.Fatalf("fresh store stats %+v, want a disk hit", st)
	}
	// Disk-restored profile run differs from the computed run only by the
	// cached marker (checked exhaustively above); the selection-sensitive
	// numbers must agree exactly.
	if got.Cycles != want.Cycles || got.Intervals != want.Intervals ||
		got.DetailedInstructions != want.DetailedInstructions || got.CyclesCI != want.CyclesCI {
		t.Errorf("disk-restored run diverged: got cycles %d/%d intervals, want %d/%d",
			got.Cycles, got.Intervals, want.Cycles, want.Intervals)
	}
}

// TestPhaseCMPSampledAccuracy extends the accuracy gate to the CMP axis
// (satellite: -cores 2 with a sharing pattern): the phase-sampled 2-core
// estimate lands within tolerance of the full 2-core run, and the
// coherence counters carry confidence intervals in the sampled metric
// list.
func TestPhaseCMPSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-vs-phased CMP comparison is slow")
	}
	const tolerance = 0.03
	opt := phaseOptions()
	opt.Cores = 2
	opt.Sharing = SharingSpec{Pattern: "producer-consumer"}
	store := NewCheckpointStore(0, "")
	opt.Checkpoints = store
	b := "gcc"

	full, err := Run(DesignTLC, b, Options{
		WarmInstructions: opt.WarmInstructions,
		RunInstructions:  opt.RunInstructions,
		Seed:             opt.Seed,
		Cores:            2,
		Sharing:          opt.Sharing,
		Checkpoints:      store,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt.PhaseProfiles = NewPhaseProfileStore(0, "")
	phased, err := RunSampled(DesignTLC, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	rel := (float64(phased.Cycles) - float64(full.Cycles)) / float64(full.Cycles)
	if math.Abs(rel) > tolerance {
		t.Errorf("phased CMP cycles %d vs full %d: %+.2f%% error exceeds ±%.0f%%",
			phased.Cycles, full.Cycles, 100*rel, 100*tolerance)
	}
	if phased.Intervals > 25 {
		t.Errorf("phased CMP run timed %d intervals, want ≤25", phased.Intervals)
	}
	coh := 0
	for _, m := range phased.Metrics {
		if len(m.Name) > 4 && m.Name[:4] == "coh." {
			coh++
			if math.IsNaN(m.CI95) || m.CI95 < 0 {
				t.Errorf("%s: bad CI %v", m.Name, m.CI95)
			}
		}
	}
	if coh == 0 {
		t.Error("no coh.* counters in the phased CMP metric list")
	}
}

// TestPhaseContentKey: the run-key axis must distinguish phase shapes —
// a cached result from one window/cluster shape must never serve another —
// and the profile key must NOT depend on the design, so one profile
// serves all six L2 designs of a benchmark.
func TestPhaseContentKey(t *testing.T) {
	base := phaseOptions()
	keys := map[string]string{
		"base":       base.ContentKey(),
		"windows 24": withPhase(base, 24, 16).ContentKey(),
		"clusters 8": withPhase(base, 48, 8).ContentKey(),
		"no phase":   Options{WarmInstructions: base.WarmInstructions, RunInstructions: base.RunInstructions, Seed: 1, SampleLength: 2000}.ContentKey(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("options %q and %q share a content key", name, prev)
		}
		seen[k] = name
	}

	spec, _ := workload.SpecByName("gcc")
	if a, b := phaseProfileKey(spec, base), phaseProfileKey(spec, withPhase(base, 24, 16)); a == b {
		t.Error("profile key ignores the window count")
	}
	if a, b := phaseProfileKey(spec, base), phaseProfileKey(spec, withPhase(base, 48, 8)); a == b {
		t.Error("profile key ignores the cluster count")
	}
	spec2, _ := workload.SpecByName("mcf")
	if a, b := phaseProfileKey(spec, base), phaseProfileKey(spec2, base); a == b {
		t.Error("profile key ignores the workload")
	}
	// Design independence: the key function takes no design at all — the
	// type system enforces it — but pin the cross-design sharing behavior
	// end to end: two designs, one store, one profiling pass.
	opt := base
	opt.WarmInstructions = 500_000
	opt.PhaseProfiles = NewPhaseProfileStore(0, "")
	if _, err := RunSampled(DesignTLC, "gcc", opt); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSampled(DesignSNUCA2, "gcc", opt); err != nil {
		t.Fatal(err)
	}
	st := opt.PhaseProfiles.Stats()
	if st.Puts != 1 || st.Hits != 1 {
		t.Errorf("two designs over one store: stats %+v, want 1 put + 1 hit (profile shared across designs)", st)
	}
}

func withPhase(o Options, w, k int) Options { o.PhaseWindows = w; o.PhaseClusters = k; return o }

// TestPhaseProfilingHonoursCancel: a phase-mode run whose profile pass
// clusters 20 000 windows into 20 000 phases — an input Validate accepts —
// stops at the run's cancel hook instead of spinning in k-means. The
// machine restores from a checkpoint, so the first poll of the hook is the
// profiling pass's.
func TestPhaseProfilingHonoursCancel(t *testing.T) {
	opt := Options{WarmInstructions: 10_000, RunInstructions: 20_000, Seed: 1,
		Checkpoints: NewCheckpointStore(0, "")}
	if _, err := Run(DesignTLC, "gcc", opt); err != nil {
		t.Fatal(err)
	}
	opt = withPhase(opt, 20_000, 20_000)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	opt.Cancel = func() error { return stop }
	done := make(chan error, 1)
	go func() {
		_, err := Run(DesignTLC, "gcc", opt)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, stop) {
			t.Fatalf("cancelled phase run returned %v, want the hook's error", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("phase-mode run ignored its cancel hook while clustering")
	}
}

// TestValidatePhaseFieldsMatchSample: Options.Validate reports a bad phase
// field combination with exactly the error the sampler's own validation
// gives, since both come from sample.Options.ValidatePhaseFields.
func TestValidatePhaseFieldsMatchSample(t *testing.T) {
	base := Options{RunInstructions: 200_000, Seed: 1}
	for _, o := range []Options{
		func() Options { o := withPhase(base, 40, 14); o.SampleIntervals = 5; return o }(),
		withPhase(base, 0, 14),
		withPhase(base, 40, 0),
		withPhase(base, 10, 14),
	} {
		got := o.Validate()
		want := o.SampleOptions().Validate(o.RunInstructions)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("%+v: Validate() = %v, sampler says %v", o.SampleOptions(), got, want)
		}
	}
}
