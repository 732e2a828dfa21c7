// Package cliopt registers the simulation-accelerator and observability
// flags shared by the run-capable commands (tlcsim, tlcbench, tlcsweep,
// tlctables): warm-state checkpointing, SMARTS-style sampled execution,
// full metric-registry dumps, and the CMP axis (-cores, -sharing).
package cliopt

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"tlc"
)

// Flags holds the shared accelerator flag values after parsing.
type Flags struct {
	// CkptDir persists warm-state checkpoints on disk when non-empty.
	CkptDir string
	// Sample is the number of detailed intervals; 0 keeps full detailed
	// simulation.
	Sample int
	// Length is the instructions per detailed interval.
	Length uint64
	// Phase selects phase-aware representative sampling with the default
	// window/cluster shape; PhaseWindows and PhaseClusters override the
	// shape (either implies -phase). Mutually exclusive with -sample.
	Phase         bool
	PhaseWindows  int
	PhaseClusters int
	// Metrics, when non-empty, collects every run's full metric-registry
	// snapshot and writes them as JSON to this file ("-" for stdout) when
	// WriteMetrics is called.
	Metrics string
	// Cores is the CMP core count: 1 is the single-core machine, 2..64 run
	// N cores over the shared L2 with MSI-coherent private L1s.
	Cores int
	// Sharing is the CMP sharing pattern name; SharedMB and SharedFrac are
	// its shared-region knobs (0 = pattern default).
	Sharing    string
	SharedMB   float64
	SharedFrac float64
	// Fidelity selects the core timing tier: "full" (default) or "fast"
	// (calibrated in-order model; results carry error bounds).
	Fidelity string

	mu     sync.Mutex
	events []tlc.MetricsEvent
}

// DefaultPhaseWindows and DefaultPhaseClusters shape -phase when the
// explicit knobs are zero: 40 windows clustered into at most 14 phases —
// the representative timed spans are whole windows, so this is 3-4x fewer
// detailed intervals than the typical -sample 50 at comparable accuracy
// (intervals collapse further when fewer phases are distinct). The window
// count is deliberately modest: phase calibration regresses per-window
// event rates, and longer windows average the rare-event noise (a handful
// of DRAM-latency misses per window) that short windows drown in.
const (
	DefaultPhaseWindows  = 40
	DefaultPhaseClusters = 14
)

// Register installs -ckptdir, -sample, -samplelen, -phase and its shape
// knobs, -metrics, -cores, and the -sharing knobs on the default flag set.
// Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.CkptDir, "ckptdir", "",
		"persist warm-state checkpoints in this directory (reused across invocations)")
	flag.IntVar(&f.Sample, "sample", 0,
		"sampled mode: detailed intervals per run (0 = full detailed simulation)")
	flag.Uint64Var(&f.Length, "samplelen", 2000,
		"instructions per detailed interval in sampled mode")
	flag.BoolVar(&f.Phase, "phase", false,
		"phase-aware sampling: cluster profiling windows and time one representative interval per phase")
	flag.IntVar(&f.PhaseWindows, "phase-windows", 0,
		fmt.Sprintf("profiling windows for -phase (0 = default %d; setting it implies -phase)", DefaultPhaseWindows))
	flag.IntVar(&f.PhaseClusters, "phase-clusters", 0,
		fmt.Sprintf("k-means clusters for -phase (0 = default %d; setting it implies -phase)", DefaultPhaseClusters))
	flag.StringVar(&f.Metrics, "metrics", "",
		"dump every run's full metric registry as JSON to this file ('-' for stdout)")
	flag.IntVar(&f.Cores, "cores", 1,
		"CMP core count: N cores share the L2 through an MSI directory (1 = the single-core machine)")
	flag.StringVar(&f.Sharing, "sharing", "",
		"CMP sharing pattern: private|producer-consumer|migratory|read-mostly (default private)")
	flag.Float64Var(&f.SharedMB, "sharedmb", 0,
		"shared-region footprint in MB for CMP sharing patterns (0 = pattern default)")
	flag.Float64Var(&f.SharedFrac, "sharedfrac", 0,
		"fraction of references aimed at the shared region (0 = pattern default)")
	flag.StringVar(&f.Fidelity, "fidelity", "",
		"core timing tier: full (default) or fast (calibrated in-order model with committed error bounds)")
	return f
}

// Apply wires the parsed flags into opt: a -ckptdir attaches a disk-backed
// checkpoint store (runs sharing a warm prefix skip warm-up, bit-identically),
// -sample/-samplelen select the uniform sampled interval plan, -phase (and
// its shape knobs) the phase-aware one with a per-invocation profile store,
// -cores/-sharing set the CMP axis, and -metrics chains a collector onto
// OnMetrics (a hook already present keeps firing after it). Apply may be
// called on several Options values (one suite per memory model, say); all
// their runs collect into the same dump. Every field is assigned first and
// then checked once by tlc.Options.Validate, the one owner of the ranges;
// the returned error is a one-line message for the caller to print and
// exit on.
func (f *Flags) Apply(opt *tlc.Options) error {
	if f.Cores < 1 {
		return fmt.Errorf("cliopt: -cores %d: need at least 1", f.Cores)
	}
	opt.Cores = f.Cores
	opt.Sharing = tlc.SharingSpec{Pattern: f.Sharing, SharedMB: f.SharedMB, SharedFrac: f.SharedFrac}
	opt.Fidelity = f.Fidelity
	if f.CkptDir != "" {
		opt.Checkpoints = tlc.NewCheckpointStore(0, f.CkptDir)
	}
	if f.Sample > 0 {
		opt.SampleIntervals = f.Sample
		opt.SampleLength = f.Length
	}
	if f.Phase || f.PhaseWindows != 0 || f.PhaseClusters != 0 {
		opt.PhaseWindows = f.PhaseWindows
		if opt.PhaseWindows == 0 {
			opt.PhaseWindows = DefaultPhaseWindows
		}
		opt.PhaseClusters = f.PhaseClusters
		if opt.PhaseClusters == 0 {
			opt.PhaseClusters = DefaultPhaseClusters
		}
		opt.SampleLength = f.Length
		// One profile store per invocation: the profile is design-
		// independent, so a grid over all six designs pays one clustering
		// pass per benchmark. -ckptdir adds the persistent tier, shared
		// with later invocations.
		opt.PhaseProfiles = tlc.NewPhaseProfileStore(0, f.CkptDir)
	}
	if f.Metrics != "" {
		user := opt.OnMetrics
		opt.OnMetrics = func(ev tlc.MetricsEvent) {
			f.mu.Lock()
			f.events = append(f.events, ev)
			f.mu.Unlock()
			if user != nil {
				user(ev)
			}
		}
	}
	return opt.Validate()
}

// runMetricsJSON is the per-run shape of the -metrics dump.
type runMetricsJSON struct {
	Design    string              `json:"design"`
	Benchmark string              `json:"benchmark"`
	Cycles    uint64              `json:"cycles"`
	Metrics   tlc.MetricsSnapshot `json:"metrics"`
}

// WriteMetrics writes the collected snapshots, sorted by (design,
// benchmark), to the -metrics target. It is a no-op when the flag is unset.
// Call once, after every run has completed.
func (f *Flags) WriteMetrics() error {
	if f.Metrics == "" {
		return nil
	}
	f.mu.Lock()
	out := make([]runMetricsJSON, 0, len(f.events))
	for _, ev := range f.events {
		out = append(out, runMetricsJSON{
			Design:    ev.Design.String(),
			Benchmark: ev.Benchmark,
			Cycles:    ev.Cycles,
			Metrics:   ev.Snapshot,
		})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Design != out[j].Design {
			return out[i].Design < out[j].Design
		}
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		// A (design, benchmark) pair can run more than once per invocation
		// (the contention grid sweeps core counts); cycles break the tie so
		// the dump order never depends on run completion order.
		return out[i].Cycles < out[j].Cycles
	})

	w := os.Stdout
	if f.Metrics != "-" {
		file, err := os.Create(f.Metrics)
		if err != nil {
			return fmt.Errorf("cliopt: -metrics: %w", err)
		}
		defer file.Close()
		w = file
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("cliopt: -metrics: %w", err)
	}
	return nil
}
