package api

import (
	"encoding/json"
	"testing"

	"tlc"
)

func TestRunOptionsDefaults(t *testing.T) {
	opt := RunOptions{}.Options()
	def := tlc.DefaultOptions()
	if opt.RunInstructions != def.RunInstructions || opt.Seed != def.Seed {
		t.Fatalf("zero RunOptions expanded to %+v, want the tlc defaults %+v", opt, def)
	}
	// A round trip through the wire shape preserves every content field:
	// the expanded options must hash to the same content key.
	set := tlc.Options{
		WarmInstructions: 123, RunInstructions: 456, Seed: 7, WarmSeed: 9,
		UseDRAM: true, BitErrorRate: 1e-9, SampleIntervals: 3, SampleLength: 11,
	}
	if got := FromOptions(set).Options().ContentKey(); got != set.ContentKey() {
		t.Fatal("RunOptions round trip changed the options content key")
	}
}

func TestRunRequestKey(t *testing.T) {
	base := RunRequest{Design: "TLC", Benchmark: "gcc"}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := base.Key()
	if k1 != k2 {
		t.Fatal("Key is not deterministic")
	}
	for _, req := range []RunRequest{
		{Design: "DNUCA", Benchmark: "gcc"},
		{Design: "TLC", Benchmark: "mcf"},
		{Design: "TLC", Benchmark: "gcc", Options: RunOptions{Seed: 2}},
		{Design: "TLC", Benchmark: "gcc", Options: RunOptions{UseDRAM: true}},
		{Design: "TLC", Benchmark: "gcc", Options: RunOptions{RunInstructions: 100}},
	} {
		k, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Fatalf("distinct config %+v aliases the base key", req)
		}
	}
	if _, err := (RunRequest{Design: "NOPE", Benchmark: "gcc"}).Key(); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := (RunRequest{Design: "TLC", Benchmark: "nope"}).Key(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestRunRequestValidateRejectsBitErrorRate: the service inherits the
// option ranges, so a rate that would have hung a worker is a 400.
func TestRunRequestValidateRejectsBitErrorRate(t *testing.T) {
	for _, ber := range []float64{2, -1} {
		req := RunRequest{Design: "TLC", Benchmark: "gcc", Options: RunOptions{BitErrorRate: ber}}
		if _, err := req.Validate(); err == nil {
			t.Errorf("BitErrorRate %v accepted", ber)
		}
	}
}

func TestParseDesignRoundTrip(t *testing.T) {
	for _, d := range tlc.Designs() {
		got, err := ParseDesign(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDesign(%q) = %v, %v", d.String(), got, err)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	res := tlc.Result{
		Design: tlc.DesignTLC, Benchmark: "gcc",
		Instructions: 1000, Cycles: 2000, IPC: 0.5,
		L2Loads: 30, L2Stores: 10, MissesPer1K: 1.5, MeanLookup: 12.25,
		PredictablePct: 80, BanksPerRequest: 1.25, LinkUtilization: 0.05,
		NetworkPowerW: 0.004, CloseHitPct: 0, PromotesPerInsert: 0,
	}
	rec := RecordFrom(res, nil, nil, 3.5)
	rec.Result = &res

	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back RunRecord
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.ToResult()
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatalf("wire round trip changed the result:\n got %+v\nwant %+v", got, res)
	}

	// Without the embedded Result (a CLI artifact), the projection keeps
	// the headline fields.
	back.Result = nil
	partial, err := back.ToResult()
	if err != nil {
		t.Fatal(err)
	}
	if partial.Cycles != res.Cycles || partial.MeanLookup != res.MeanLookup || partial.Design != res.Design {
		t.Fatalf("headline projection diverged: %+v", partial)
	}
}
