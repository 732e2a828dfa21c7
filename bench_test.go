package tlc

// One benchmark per table and figure of the paper's evaluation section,
// plus the ablation benches DESIGN.md section 5 calls out. Each bench
// regenerates its experiment at a reduced scale (200 K timed instructions,
// 2 M warm) and reports the experiment's headline quantities as custom
// metrics, so `go test -bench=. -benchmem` doubles as a quick reproduction
// of the paper's shapes. cmd/tlctables runs the full-scale versions.

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/nuca"
	"tlc/internal/sim"
	"tlc/internal/stats"
	"tlc/internal/tlcache"
	"tlc/internal/tline"
	"tlc/internal/wire"
	"tlc/internal/workload"
)

// benchOptions is the reduced scale used by the benchmark harness.
func benchOptions() Options {
	return Options{WarmInstructions: 2_000_000, RunInstructions: 200_000, Seed: 1}
}

// benchRun runs one (design, benchmark) pair at bench scale.
func benchRun(b *testing.B, d Design, bench string) Result {
	b.Helper()
	res, err := Run(d, bench, benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkTable1TransmissionLines(b *testing.B) {
	var minAmp, minPulse float64
	for i := 0; i < b.N; i++ {
		minAmp, minPulse = 1, 1000
		for _, rep := range AnalyzeLines() {
			if !rep.OK {
				b.Fatalf("Table 1 geometry %+v fails acceptance", rep.Geometry)
			}
			minAmp = math.Min(minAmp, rep.AmplitudeFrac)
			minPulse = math.Min(minPulse, rep.PulseWidthPs)
		}
	}
	b.ReportMetric(minAmp, "min_amplitude_xVdd")
	b.ReportMetric(minPulse, "min_pulse_ps")
}

func BenchmarkTable2DesignParameters(b *testing.B) {
	want := map[Design][2]uint64{
		DesignTLC:        {10, 16},
		DesignTLCOpt1000: {12, 13},
		DesignTLCOpt500:  {12, 12},
		DesignTLCOpt350:  {12, 12},
		DesignSNUCA2:     {9, 32},
		DesignDNUCA:      {3, 47},
	}
	for i := 0; i < b.N; i++ {
		for d, r := range want {
			min, max := UncontendedRange(d)
			if min != r[0] || max != r[1] {
				b.Fatalf("%v uncontended range %d-%d, want %d-%d", d, min, max, r[0], r[1])
			}
		}
	}
	b.ReportMetric(2048, "tlc_total_lines")
}

func BenchmarkFigure3WireComparison(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rep := wire.Repeat(wire.Global45(), 20).DelayPs
		tl := 20e-3 / tline.Extract(tline.Table1()[2]).Velocity * 1e12
		speedup = rep / tl
	}
	b.ReportMetric(speedup, "tl_speedup_2cm")
	b.ReportMetric(wire.Repeat(wire.Global45(), 20).DelayCycles(), "rc_2cm_cycles")
}

func BenchmarkTable6BenchmarkCharacteristics(b *testing.B) {
	var tlcPred, dnucaPred stats.Series
	for i := 0; i < b.N; i++ {
		tlcPred, dnucaPred = stats.Series{}, stats.Series{}
		for _, bench := range Benchmarks() {
			tr := benchRun(b, DesignTLC, bench)
			dr := benchRun(b, DesignDNUCA, bench)
			tlcPred.Append(bench, tr.PredictablePct)
			dnucaPred.Append(bench, dr.PredictablePct)
		}
	}
	b.ReportMetric(tlcPred.Mean(), "tlc_predictable_pct")
	b.ReportMetric(dnucaPred.Mean(), "dnuca_predictable_pct")
}

func BenchmarkTable7SubstrateArea(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		dn := Area(DesignDNUCA).TotalMM2()
		tl := Area(DesignTLC).TotalMM2()
		savings = 100 * (1 - tl/dn)
	}
	b.ReportMetric(savings, "area_savings_pct")
	b.ReportMetric(Area(DesignTLC).TotalMM2(), "tlc_total_mm2")
}

func BenchmarkTable8NetworkTransistors(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = float64(Transistors(DesignDNUCA).Count) / float64(Transistors(DesignTLC).Count)
	}
	b.ReportMetric(ratio, "transistor_ratio")
	b.ReportMetric(Transistors(DesignDNUCA).GateWidthLambda/1e6, "dnuca_gate_Mlambda")
	b.ReportMetric(Transistors(DesignTLC).GateWidthLambda/1e6, "tlc_gate_Mlambda")
}

func BenchmarkTable9DynamicPower(b *testing.B) {
	var avgSavings, dnucaBanks float64
	for i := 0; i < b.N; i++ {
		avgSavings, dnucaBanks = 0, 0
		for _, bench := range Benchmarks() {
			dr := benchRun(b, DesignDNUCA, bench)
			tr := benchRun(b, DesignTLC, bench)
			avgSavings += 1 - tr.NetworkPowerW/dr.NetworkPowerW
			dnucaBanks += dr.BanksPerRequest
		}
		avgSavings /= float64(len(Benchmarks()))
		dnucaBanks /= float64(len(Benchmarks()))
	}
	b.ReportMetric(avgSavings*100, "power_savings_pct")
	b.ReportMetric(dnucaBanks, "dnuca_banks_per_req")
}

func BenchmarkFigure5NormalizedExecTime(b *testing.B) {
	var dnuca, tlcs stats.Series
	for i := 0; i < b.N; i++ {
		dnuca, tlcs = stats.Series{}, stats.Series{}
		for _, bench := range Benchmarks() {
			base := float64(benchRun(b, DesignSNUCA2, bench).Cycles)
			dnuca.Append(bench, float64(benchRun(b, DesignDNUCA, bench).Cycles)/base)
			tlcs.Append(bench, float64(benchRun(b, DesignTLC, bench).Cycles)/base)
		}
	}
	b.ReportMetric(dnuca.GeoMean(), "dnuca_norm_exec_geomean")
	b.ReportMetric(tlcs.GeoMean(), "tlc_norm_exec_geomean")
}

func BenchmarkFigure6MeanLookupLatency(b *testing.B) {
	var tlcMin, tlcMax, dnMin, dnMax float64
	for i := 0; i < b.N; i++ {
		tlcMin, tlcMax, dnMin, dnMax = math.Inf(1), 0, math.Inf(1), 0
		for _, bench := range Benchmarks() {
			t := benchRun(b, DesignTLC, bench).MeanLookup
			d := benchRun(b, DesignDNUCA, bench).MeanLookup
			tlcMin, tlcMax = math.Min(tlcMin, t), math.Max(tlcMax, t)
			dnMin, dnMax = math.Min(dnMin, d), math.Max(dnMax, d)
		}
	}
	b.ReportMetric(tlcMax-tlcMin, "tlc_lookup_spread_cycles")
	b.ReportMetric(dnMax-dnMin, "dnuca_lookup_spread_cycles")
	b.ReportMetric(tlcMax, "tlc_lookup_max_cycles")
}

func BenchmarkFigure7LinkUtilization(b *testing.B) {
	var baseMax, opt350Max float64
	for i := 0; i < b.N; i++ {
		baseMax, opt350Max = 0, 0
		for _, bench := range Benchmarks() {
			baseMax = math.Max(baseMax, benchRun(b, DesignTLC, bench).LinkUtilization)
			opt350Max = math.Max(opt350Max, benchRun(b, DesignTLCOpt350, bench).LinkUtilization)
		}
	}
	b.ReportMetric(baseMax*100, "tlc_max_util_pct")
	b.ReportMetric(opt350Max*100, "opt350_max_util_pct")
}

func BenchmarkFigure8TLCFamilyExecTime(b *testing.B) {
	var worstDelta float64
	for i := 0; i < b.N; i++ {
		worstDelta = 0
		for _, bench := range Benchmarks() {
			base := float64(benchRun(b, DesignTLC, bench).Cycles)
			for _, d := range []Design{DesignTLCOpt1000, DesignTLCOpt500, DesignTLCOpt350} {
				norm := float64(benchRun(b, d, bench).Cycles) / base
				worstDelta = math.Max(worstDelta, math.Abs(norm-1))
			}
		}
	}
	b.ReportMetric(worstDelta*100, "family_worst_exec_delta_pct")
}

func BenchmarkFullScaleSampledSpeedup(b *testing.B) {
	// The perf acceptance gate: for a full-scale-shaped run (16 M warm +
	// 2 M timed), skipping warm-up via a checkpoint and cutting detailed
	// work via sampling must reduce wall-clock ≥5× while staying within
	// the sampled-mode accuracy envelope.
	opt := Options{WarmInstructions: 16_000_000, RunInstructions: 2_000_000, Seed: 1}
	fast := opt
	fast.Checkpoints = NewCheckpointStore(0, "")
	fast.SampleIntervals = 50
	fast.SampleLength = 2_000
	// Populate the checkpoint outside the timed region: the steady state
	// being modeled is a sweep or seed set that warms once.
	if _, err := RunSampled(DesignTLC, "gcc", fast); err != nil {
		b.Fatal(err)
	}
	var fullNS, fastNS time.Duration
	var speedup float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := Run(DesignTLC, "gcc", opt); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := RunSampled(DesignTLC, "gcc", fast); err != nil {
			b.Fatal(err)
		}
		fullNS += t1.Sub(t0)
		fastNS += time.Since(t1)
		speedup = float64(fullNS) / float64(fastNS)
	}
	b.ReportMetric(speedup, "wallclock_speedup")
	b.ReportMetric(float64(fullNS.Milliseconds())/float64(b.N), "full_ms_per_run")
	b.ReportMetric(float64(fastNS.Milliseconds())/float64(b.N), "sampled_ms_per_run")
}

func BenchmarkFullScaleFastSpeedup(b *testing.B) {
	// The fast-tier perf acceptance gate, same shape as
	// BenchmarkFullScaleSampledSpeedup: a full-scale run (16 M warm + 2 M
	// timed) against the fast tier restoring its checkpoint and running the
	// calibrated in-order model must be ≥5× faster in wall-clock, with the
	// accuracy side covered by the committed CALIBRATION.json bounds
	// (TestFastTierErrorWithinCalibratedBounds).
	opt := Options{WarmInstructions: 16_000_000, RunInstructions: 2_000_000, Seed: 1}
	fast := opt
	fast.Fidelity = FidelityFast
	fast.Checkpoints = NewCheckpointStore(0, "")
	// Populate the fast tier's checkpoint outside the timed region.
	if _, err := Run(DesignTLC, "gcc", fast); err != nil {
		b.Fatal(err)
	}
	var fullNS, fastNS time.Duration
	var speedup float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := Run(DesignTLC, "gcc", opt); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := Run(DesignTLC, "gcc", fast); err != nil {
			b.Fatal(err)
		}
		fullNS += t1.Sub(t0)
		fastNS += time.Since(t1)
		speedup = float64(fullNS) / float64(fastNS)
	}
	b.ReportMetric(speedup, "fast_speedup")
	b.ReportMetric(float64(fullNS.Milliseconds())/float64(b.N), "full_ms_per_run")
	b.ReportMetric(float64(fastNS.Milliseconds())/float64(b.N), "fast_ms_per_run")
}

func BenchmarkWarmThroughput(b *testing.B) {
	// The batched-delivery acceptance gate: the warm kernel fed by the
	// generator's native NextMems (run-length skipping inside the
	// generator) against the same kernel fed one Next call per instruction
	// (scalarStream), on identically prepared machines. The in-core scalar
	// loop this once measured is gone; warm_ref_test.go keeps it as the
	// kernel's oracle. Two workload profiles bound the gain: bzip's
	// references stay in the L1-resident region (delivery-dominated), gcc
	// spreads work across the skewed hot set and the TLC warm kernel. The
	// benchmark doubles as a determinism smoke check: after the timed
	// sections, the two cores and caches must hold bit-identical state, so
	// CI's short -benchtime run fails loudly on any batched/Next divergence.
	for _, name := range []string{"bzip", "gcc"} {
		b.Run(name, func(b *testing.B) {
			sys := config.DefaultSystem()
			spec, _ := workload.SpecByName(name)
			const warmN = 2_000_000
			mk := func() (*cpu.Core, *workload.Generator, *tlcache.Cache) {
				gen := workload.New(spec, 1)
				c := tlcache.New(config.TLC, sys.MemoryLatency)
				gen.PreWarm(c)
				core := cpu.New(sys, c)
				core.Warm(gen, warmN) // steady-state caches and buffers before timing
				return core, gen, c
			}
			scalarCore, scalarGen, scalarL2 := mk()
			fastCore, fastGen, fastL2 := mk()

			var scalarNS, fastNS time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				scalarCore.Warm(scalarStream{scalarGen}, warmN)
				t1 := time.Now()
				fastCore.Warm(fastGen, warmN)
				scalarNS += t1.Sub(t0)
				fastNS += time.Since(t1)
			}
			b.ReportMetric(float64(scalarNS)/float64(fastNS), "warm_speedup")
			b.ReportMetric(float64(b.N)*warmN/1e6/fastNS.Seconds(), "batched_Minstr_per_s")
			b.ReportMetric(float64(b.N)*warmN/1e6/scalarNS.Seconds(), "scalar_Minstr_per_s")

			// Divergence check: both arms consumed the identical stream, so
			// state must match exactly.
			if scalarGen.State() != fastGen.State() {
				b.Fatal("batched and scalar warm diverged: generator state mismatch")
			}
			if !reflect.DeepEqual(scalarCore.Snapshot(), fastCore.Snapshot()) {
				b.Fatal("batched and scalar warm diverged: L1 state mismatch")
			}
			if !reflect.DeepEqual(scalarL2.SnapshotState(), fastL2.SnapshotState()) {
				b.Fatal("batched and scalar warm diverged: L2 state mismatch")
			}
		})
	}
}

// BenchmarkTimedThroughput is the timed-path counterpart of
// BenchmarkWarmThroughput: machines restored from one checkpoint run the
// bench-scale timed interval through the one timed kernel, fed by the
// generator's native NextBatch fills and, on a twin restored from the same
// checkpoint, by one Next call per instruction (scalarStream). One design
// per L2 implementation (nuca SNUCA, nuca DNUCA, tlcache) times three
// workload shapes: gcc's skewed hot set, swim's streams, and oltp's sliding
// cold window. It doubles as a determinism smoke check: the two arms must
// finish on the same cycle and the same stream position, so CI's
// -benchtime 1x run fails loudly on any batched/Next drift.
func BenchmarkTimedThroughput(b *testing.B) {
	for _, d := range []Design{DesignSNUCA2, DesignDNUCA, DesignTLC} {
		for _, name := range []string{"gcc", "swim", "oltp"} {
			b.Run(d.String()+"/"+name, func(b *testing.B) {
				spec, _ := workload.SpecByName(name)
				opt := benchOptions()
				opt.Checkpoints = NewCheckpointStore(0, "")
				// The first prepare warms and fills the store; every
				// machine after it restores.
				if _, err := prepare(d, spec, opt); err != nil {
					b.Fatal(err)
				}
				n := opt.RunInstructions
				var batchedNS, scalarNS time.Duration
				for i := 0; i < b.N; i++ {
					fastRig, err := prepare(d, spec, opt)
					if err != nil {
						b.Fatal(err)
					}
					scalarRig, err := prepare(d, spec, opt)
					if err != nil {
						b.Fatal(err)
					}
					fastGen := fastRig.streams[0].(*workload.Generator)
					scalarGen := scalarRig.streams[0].(*workload.Generator)
					t0 := time.Now()
					fast := fastRig.cores[0].Run(fastGen, n)
					t1 := time.Now()
					scalar := scalarRig.cores[0].Run(scalarStream{scalarGen}, n)
					batchedNS += t1.Sub(t0)
					scalarNS += time.Since(t1)
					if fast != scalar {
						b.Fatalf("batched and scalar timed runs diverged: %+v != %+v", fast, scalar)
					}
					if fastGen.State() != scalarGen.State() {
						b.Fatal("batched and scalar timed runs diverged: generator state mismatch")
					}
				}
				b.ReportMetric(float64(b.N)*float64(n)/1e6/batchedNS.Seconds(), "batched_Minstr_per_s")
				b.ReportMetric(float64(b.N)*float64(n)/1e6/scalarNS.Seconds(), "scalar_Minstr_per_s")
			})
		}
	}
}

// BenchmarkLaneSweep is the lane-parallel acceptance gate: warming every
// design of the grid off one shared stream (the SoA lane engine) against
// warming each design off its own stream (the batched fast path, the best
// per-point execution). The scalar arm pays stream generation and batching
// once per design; the lane arm pays it once for the whole group, and its
// 2-way kernel updates all lanes per reference. Like BenchmarkWarmThroughput
// it doubles as a determinism smoke check: after the timed sections, every
// lane's core, L2, and generator position must match its scalar twin bit for
// bit, so CI's short -benchtime run fails loudly on any divergence.
func BenchmarkLaneSweep(b *testing.B) {
	for _, name := range []string{"bzip", "gcc"} {
		b.Run(name, func(b *testing.B) {
			sys := config.DefaultSystem()
			spec, _ := workload.SpecByName(name)
			designs := Designs()
			const warmN = 2_000_000

			type arm struct {
				core *cpu.Core
				l2   l2.Snapshotter
			}
			mk := func(d Design, gen *workload.Generator) arm {
				inst := build(d, Options{})
				gen.PreWarm(inst)
				return arm{cpu.New(sys, inst), inst.(l2.Snapshotter)}
			}

			// Scalar arm: one private stream per design, batched delivery.
			scalarGens := make([]*workload.Generator, len(designs))
			scalarArms := make([]arm, len(designs))
			for i, d := range designs {
				scalarGens[i] = workload.New(spec, 1)
				scalarArms[i] = mk(d, scalarGens[i])
				scalarArms[i].core.Warm(scalarGens[i], warmN) // steady state before timing
			}
			// Lane arm: one shared stream drives every design.
			laneGen := workload.New(spec, 1)
			laneArms := make([]arm, len(designs))
			laneCores := make([]*cpu.Core, len(designs))
			for i, d := range designs {
				laneArms[i] = mk(d, laneGen)
				laneCores[i] = laneArms[i].core
			}
			lw := cpu.NewLaneWarmer(laneCores)
			if err := lw.Warm(laneGen, warmN, nil); err != nil {
				b.Fatal(err)
			}

			var scalarNS, laneNS time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for j := range scalarArms {
					scalarArms[j].core.Warm(scalarGens[j], warmN)
				}
				t1 := time.Now()
				if err := lw.Warm(laneGen, warmN, nil); err != nil {
					b.Fatal(err)
				}
				scalarNS += t1.Sub(t0)
				laneNS += time.Since(t1)
			}
			b.ReportMetric(float64(scalarNS)/float64(laneNS), "lane_speedup")
			b.ReportMetric(float64(b.N)*warmN*float64(len(designs))/1e6/laneNS.Seconds(), "lane_Minstr_per_s")
			b.ReportMetric(float64(b.N)*warmN*float64(len(designs))/1e6/scalarNS.Seconds(), "scalar_Minstr_per_s")

			// Divergence check: each lane consumed the identical stream its
			// scalar twin did, so all state must match exactly.
			for i, d := range designs {
				if scalarGens[i].State() != laneGen.State() {
					b.Fatalf("%v: lane and scalar warm diverged: generator state mismatch", d)
				}
				if !reflect.DeepEqual(scalarArms[i].core.Snapshot(), laneArms[i].core.Snapshot()) {
					b.Fatalf("%v: lane and scalar warm diverged: L1 state mismatch", d)
				}
				if !reflect.DeepEqual(scalarArms[i].l2.SnapshotState(), laneArms[i].l2.SnapshotState()) {
					b.Fatalf("%v: lane and scalar warm diverged: L2 state mismatch", d)
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md section 5) ---

func BenchmarkAblationDNUCAPromotion(b *testing.B) {
	sys := config.DefaultSystem()
	var with, without float64
	for i := 0; i < b.N; i++ {
		run := func(disable bool) float64 {
			spec, _ := workload.SpecByName("gcc")
			gen := workload.New(spec, 1)
			d := nuca.NewDNUCA(sys.MemoryLatency)
			d.Abl.DisablePromotion = disable
			gen.PreWarm(d)
			core := cpu.New(sys, d)
			core.Warm(gen, 2_000_000)
			return float64(core.Run(gen, 200_000).Cycles)
		}
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(without/with, "exec_ratio_without_promotion")
}

func BenchmarkAblationDNUCAPartialTags(b *testing.B) {
	sys := config.DefaultSystem()
	var with, without float64
	for i := 0; i < b.N; i++ {
		run := func(disable bool) float64 {
			spec, _ := workload.SpecByName("mcf")
			gen := workload.New(spec, 1)
			d := nuca.NewDNUCA(sys.MemoryLatency)
			d.Abl.DisablePartialTags = disable
			gen.PreWarm(d)
			core := cpu.New(sys, d)
			core.Warm(gen, 2_000_000)
			core.Run(gen, 200_000)
			return d.Lookup.Mean()
		}
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(without-with, "lookup_cycles_added_without_ptags")
}

func BenchmarkAblationTLCLinkMargin(b *testing.B) {
	sys := config.DefaultSystem()
	var base, widened float64
	for i := 0; i < b.N; i++ {
		run := func(margin int) float64 {
			spec, _ := workload.SpecByName("mcf")
			gen := workload.New(spec, 1)
			c := tlcache.New(config.TLC, sys.MemoryLatency)
			c.AddLinkMargin(sim.Time(margin))
			gen.PreWarm(c)
			core := cpu.New(sys, c)
			core.Warm(gen, 2_000_000)
			return float64(core.Run(gen, 200_000).Cycles)
		}
		base = run(0)
		widened = run(2)
	}
	b.ReportMetric(widened/base, "exec_ratio_with_2cycle_margin")
}

func BenchmarkAblationReplacementOnEquake(b *testing.B) {
	// The equake story (Section 6.1): DNUCA's insert-far placement
	// shields its hot set from the stream; TLC's LRU does not.
	var tlcMiss, dnucaMiss float64
	for i := 0; i < b.N; i++ {
		tlcMiss = benchRun(b, DesignTLC, "equake").MissesPer1K
		dnucaMiss = benchRun(b, DesignDNUCA, "equake").MissesPer1K
	}
	b.ReportMetric(tlcMiss, "tlc_equake_miss_per_1k")
	b.ReportMetric(dnucaMiss, "dnuca_equake_miss_per_1k")
}

func BenchmarkAblationTLCoptMultiMatch(b *testing.B) {
	// Multi-matches need full sets with diverse tags: equake's large
	// resident hot set provides them (the SPECint footprints span too few
	// address-space chunks for 6-bit partial tags to alias).
	sys := config.DefaultSystem()
	var rate float64
	for i := 0; i < b.N; i++ {
		spec, _ := workload.SpecByName("equake")
		gen := workload.New(spec, 1)
		c := tlcache.New(config.TLCOpt500, sys.MemoryLatency)
		gen.PreWarm(c)
		core := cpu.New(sys, c)
		core.Warm(gen, 2_000_000)
		core.Run(gen, 200_000)
		rate = 100 * float64(c.MultiMatches) / float64(c.Loads.Value())
	}
	b.ReportMetric(rate, "multimatch_pct_of_lookups")
}

func BenchmarkAblationTLCNoiseECC(b *testing.B) {
	// The reliability extension (Section 4): sweep residual line noise
	// and measure what end-to-end ECC retries cost. At the operating
	// points the paper's conservative margins target, the cost is nil.
	sys := config.DefaultSystem()
	var retryRate, execRatio float64
	for i := 0; i < b.N; i++ {
		run := func(ber float64) (float64, float64) {
			spec, _ := workload.SpecByName("gcc")
			gen := workload.New(spec, 1)
			c := tlcache.New(config.TLC, sys.MemoryLatency)
			if ber > 0 {
				c.SetNoise(ber)
			}
			gen.PreWarm(c)
			core := cpu.New(sys, c)
			core.Warm(gen, 2_000_000)
			cr := core.Run(gen, 200_000)
			return float64(cr.Cycles), float64(c.ECCRetries) / float64(c.Loads.Value())
		}
		clean, _ := run(0)
		noisy, rr := run(5e-4)
		retryRate = rr
		execRatio = noisy / clean
	}
	b.ReportMetric(retryRate*100, "retry_pct_at_BER_5e-4")
	b.ReportMetric(execRatio, "exec_ratio_at_BER_5e-4")
}
