package tlc

import (
	"math"
	"strings"
	"testing"
)

// testOptions keeps integration tests fast.
func testOptions() Options {
	return Options{WarmInstructions: 1_000_000, RunInstructions: 100_000, Seed: 1}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run(DesignTLC, "doom", testOptions()); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestRunProducesCoherentResult(t *testing.T) {
	res, err := Run(DesignTLC, "gcc", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != DesignTLC || res.Benchmark != "gcc" {
		t.Fatal("result identity wrong")
	}
	if res.Instructions != 100_000 || res.Cycles == 0 {
		t.Fatal("run did not execute")
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Fatalf("IPC %v outside (0,4]", res.IPC)
	}
	if res.L2Loads == 0 || res.L2Stores == 0 {
		t.Fatal("no L2 traffic recorded")
	}
	if res.MeanLookup < 10 || res.MeanLookup > 60 {
		t.Fatalf("mean lookup %v implausible for TLC", res.MeanLookup)
	}
	if res.BanksPerRequest != 1 {
		t.Fatalf("base TLC banks/request %v, want 1", res.BanksPerRequest)
	}
	if res.LinkUtilization <= 0 || res.LinkUtilization > 0.5 {
		t.Fatalf("link utilization %v implausible", res.LinkUtilization)
	}
	if res.NetworkPowerW <= 0 {
		t.Fatal("no network power recorded")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, _ := Run(DesignDNUCA, "apache", testOptions())
	b, _ := Run(DesignDNUCA, "apache", testOptions())
	if a.Cycles != b.Cycles || a.MeanLookup != b.MeanLookup || a.CloseHitPct != b.CloseHitPct {
		t.Fatal("identical runs diverged")
	}
	opt2 := testOptions()
	opt2.Seed = 99
	c, _ := Run(DesignDNUCA, "apache", opt2)
	if a.Cycles == c.Cycles {
		t.Fatal("different seeds produced identical cycle counts")
	}
}

func TestSameTraceAcrossDesigns(t *testing.T) {
	// The comparison methodology requires every design to see the same
	// instruction stream: L2 request counts must match for designs with
	// identical L1 behaviour.
	a, _ := Run(DesignSNUCA2, "zeus", testOptions())
	b, _ := Run(DesignTLC, "zeus", testOptions())
	if a.L2Loads != b.L2Loads || a.L2Stores != b.L2Stores {
		t.Fatalf("designs saw different traffic: %d/%d vs %d/%d",
			a.L2Loads, a.L2Stores, b.L2Loads, b.L2Stores)
	}
}

func TestDesignListsComplete(t *testing.T) {
	if len(Designs()) != 6 {
		t.Fatal("six designs expected")
	}
	if len(TLCFamily()) != 4 {
		t.Fatal("four TLC designs expected")
	}
	if len(Benchmarks()) != 12 {
		t.Fatal("twelve benchmarks expected")
	}
}

func TestUncontendedRangesMatchTable2(t *testing.T) {
	want := map[Design][2]uint64{
		DesignTLC:        {10, 16},
		DesignTLCOpt1000: {12, 13},
		DesignTLCOpt500:  {12, 12},
		DesignTLCOpt350:  {12, 12},
		DesignSNUCA2:     {9, 32},
		DesignDNUCA:      {3, 47},
	}
	for d, r := range want {
		min, max := UncontendedRange(d)
		if min != r[0] || max != r[1] {
			t.Errorf("%v range %d-%d, want %d-%d", d, min, max, r[0], r[1])
		}
	}
}

func TestTotalLines(t *testing.T) {
	want := map[Design]int{
		DesignTLC: 2048, DesignTLCOpt1000: 1008, DesignTLCOpt500: 512,
		DesignTLCOpt350: 352, DesignSNUCA2: 0, DesignDNUCA: 0,
	}
	for d, lines := range want {
		if got := TotalLines(d); got != lines {
			t.Errorf("%v lines %d, want %d", d, got, lines)
		}
	}
}

func TestMeshSegments(t *testing.T) {
	if MeshSegments(DesignTLC) != 0 {
		t.Fatal("TLC has no mesh")
	}
	if MeshSegments(DesignDNUCA) == 0 || MeshSegments(DesignSNUCA2) == 0 {
		t.Fatal("NUCA designs must report mesh segments")
	}
}

func TestAnalyzeLinesAllPass(t *testing.T) {
	reps := AnalyzeLines()
	if len(reps) != 3 {
		t.Fatal("three Table 1 geometries expected")
	}
	for _, r := range reps {
		if !r.OK {
			t.Errorf("geometry %+v fails signal integrity", r.Geometry)
		}
	}
}

func TestAreaAndTransistorFacades(t *testing.T) {
	if Area(DesignTLC).TotalMM2() >= Area(DesignDNUCA).TotalMM2() {
		t.Fatal("TLC should use less substrate than DNUCA (Table 7)")
	}
	if Transistors(DesignTLC).Count*50 > Transistors(DesignDNUCA).Count {
		t.Fatal("DNUCA should need >50x the network transistors (Table 8)")
	}
}

func TestDNUCAResultIncludesDesignMetrics(t *testing.T) {
	res, _ := Run(DesignDNUCA, "gcc", testOptions())
	if res.CloseHitPct <= 0 {
		t.Fatal("DNUCA close-hit metric missing")
	}
	if res.LinkUtilization != 0 {
		t.Fatal("DNUCA has no transmission lines to utilize")
	}
}

func TestTLCFamilyUtilizationOrdering(t *testing.T) {
	// Figure 7's defining shape at small scale: fewer lines, higher
	// utilization.
	var prev float64
	for i, d := range TLCFamily() {
		res, _ := Run(d, "gcc", testOptions())
		if i > 0 && res.LinkUtilization <= prev {
			t.Fatalf("%v utilization %v not above its wider predecessor %v",
				d, res.LinkUtilization, prev)
		}
		prev = res.LinkUtilization
	}
}

func TestPredictabilityShape(t *testing.T) {
	// Table 6 columns 7-8: TLC must be far more predictable than DNUCA.
	tr, _ := Run(DesignTLC, "gcc", testOptions())
	dr, _ := Run(DesignDNUCA, "gcc", testOptions())
	if tr.PredictablePct <= dr.PredictablePct {
		t.Fatalf("TLC predictability %.1f%% should exceed DNUCA's %.1f%%",
			tr.PredictablePct, dr.PredictablePct)
	}
}

func TestDRAMBackedRun(t *testing.T) {
	opt := testOptions()
	opt.UseDRAM = true
	res, err := Run(DesignTLC, "swim", opt)
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := Run(DesignTLC, "swim", testOptions())
	if res.Cycles == flat.Cycles {
		t.Fatal("the DRAM model should perturb a miss-heavy run")
	}
	// Same trace, same L2: only memory timing differs.
	if res.L2Loads != flat.L2Loads || res.MissesPer1K != flat.MissesPer1K {
		t.Fatal("memory model must not change functional behaviour")
	}
	// Stays in a plausible band: banked DRAM with open rows can be
	// faster or slower than flat-300 but not wildly different.
	ratio := float64(res.Cycles) / float64(flat.Cycles)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("DRAM-backed run ratio %.2f implausible", ratio)
	}
}

func TestBitErrorRateOption(t *testing.T) {
	opt := testOptions()
	opt.BitErrorRate = 1e-3
	res, err := Run(DesignTLC, "gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ECCCorrections == 0 {
		t.Fatal("BER option did not inject errors")
	}
	clean, _ := Run(DesignTLC, "gcc", testOptions())
	if clean.ECCCorrections != 0 {
		t.Fatal("ECC active without the option")
	}
	// Functional behaviour is preserved: ECC repairs or retries.
	if res.MissesPer1K != clean.MissesPer1K {
		t.Fatal("noise must not change hit/miss outcomes")
	}
}

// TestValidateRejectsBitErrorRateOutOfRange: a bit-error rate is a
// probability below one. Rates at or above one used to pass validation and
// spin the ECC retry loop; negative and NaN rates were silently accepted.
func TestValidateRejectsBitErrorRateOutOfRange(t *testing.T) {
	for _, ber := range []float64{2, 1, -1, math.NaN(), math.Inf(1)} {
		opt := testOptions()
		opt.BitErrorRate = ber
		if err := opt.Validate(); err == nil || !strings.Contains(err.Error(), "BitErrorRate") {
			t.Errorf("BitErrorRate %v: Validate = %v, want a BitErrorRate error", ber, err)
		}
		if _, err := Run(DesignTLC, "gcc", opt); err == nil {
			t.Errorf("BitErrorRate %v: Run accepted it", ber)
		}
	}
	for _, ber := range []float64{0, 1e-9, 0.5} {
		opt := testOptions()
		opt.BitErrorRate = ber
		if err := opt.Validate(); err != nil {
			t.Errorf("BitErrorRate %v: Validate = %v, want nil", ber, err)
		}
	}
}

// TestValidateRejectsZeroRunInstructions: a run with no timed instructions
// used to return an all-zero Result and no error.
func TestValidateRejectsZeroRunInstructions(t *testing.T) {
	opt := testOptions()
	opt.RunInstructions = 0
	if err := opt.Validate(); err == nil || !strings.Contains(err.Error(), "RunInstructions") {
		t.Errorf("Validate = %v, want a RunInstructions error", err)
	}
	if res, err := Run(DesignTLC, "gcc", opt); err == nil {
		t.Errorf("Run returned %+v and no error", res)
	}
}

// TestRunEntryPointsValidateAlike: Run and RunSampled check options in one
// order, so an input with several faults gets the same error from both. A
// sampling plan with no RunInstructions used to get "RunInstructions is 0"
// from Run but the sampling-plan error from RunSampled.
func TestRunEntryPointsValidateAlike(t *testing.T) {
	opt := Options{SampleIntervals: 2, SampleLength: 1000}
	_, runErr := Run(DesignTLC, "gcc", opt)
	_, sampledErr := RunSampled(DesignTLC, "gcc", opt)
	if runErr == nil || sampledErr == nil {
		t.Fatalf("Run = %v, RunSampled = %v; want both to reject the options", runErr, sampledErr)
	}
	if runErr.Error() != sampledErr.Error() {
		t.Fatalf("Run and RunSampled disagree:\nRun:        %v\nRunSampled: %v", runErr, sampledErr)
	}
}

func TestRunSeeds(t *testing.T) {
	cyc, lookup, _, err := RunSeeds(DesignTLC, "perl", testOptions(), []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Mean <= 0 || lookup.Mean <= 0 {
		t.Fatal("seed summary empty")
	}
	if cyc.Min > cyc.Mean || cyc.Max < cyc.Mean {
		t.Fatal("seed summary ordering wrong")
	}
	if cyc.Spread() > 0.2 {
		t.Fatalf("cycles spread %.2f across seeds: conclusions are seed-fragile", cyc.Spread())
	}
	if _, _, _, err := RunSeeds(DesignTLC, "perl", testOptions(), nil); err == nil {
		t.Fatal("empty seed list should error")
	}
}
