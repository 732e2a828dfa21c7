package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tlc"
	"tlc/internal/snapshot"
)

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pct, beyond int
	}{
		{20, 50, 10},
		{72, 86, 10},
		{144, 93, 10},
		{168, 94, 10},
		{1000, 99, 10},
		{5000, 99, 50},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reversed: the rule must sort
		}
		got, ok := tailPercentile(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", tc.n)
		}
		if got.Pct != tc.pct || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got p%d with %d beyond of %d, want p%d with %d beyond", tc.n, got.Pct, got.Beyond, got.N, tc.pct, tc.beyond)
		}
		// Values are 1..n, so the value at nearest rank r is r itself.
		if want := float64(tc.n - got.Beyond); got.Value != want {
			t.Errorf("n=%d: value %g, want %g", tc.n, got.Value, want)
		}
		// One more percentile would leave fewer than ten beyond.
		if got.Pct < 99 {
			if next := tc.n - int(math.Ceil(float64(got.Pct+1)*float64(tc.n)/100)); next >= tailMinBeyond {
				t.Errorf("n=%d: p%d also leaves %d beyond", tc.n, got.Pct+1, next)
			}
		}
	}
	if _, ok := tailPercentile(make([]float64, 19)); ok {
		t.Error("19 samples gave a tail; the median leaves only 9 beyond")
	}
}

func TestUnitTailIsMedianOfUnitTails(t *testing.T) {
	// Three units of 20 samples: each unit's tail is its p50, the 10th
	// smallest value.
	var units [][]float64
	for _, base := range []float64{300, 100, 200} {
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = base + float64(i)
		}
		units = append(units, xs)
	}
	got, tails, ok := unitTail(units)
	if !ok || len(tails) != 3 {
		t.Fatalf("ok=%v, %d tails", ok, len(tails))
	}
	if got != 209 {
		t.Errorf("median of unit tails %g, want 209", got)
	}
	if _, _, ok := unitTail(append(units, make([]float64, 19))); ok {
		t.Error("a unit of 19 samples gave a tail")
	}
}

func TestDigestFlagsPerturbedResult(t *testing.T) {
	snap := tlc.MetricsSnapshot{
		{Name: "l2.loads", Kind: "counter", Value: 1200, Count: 1200},
		{Name: "l2.lookup", Kind: "histogram", Value: 17.25, Count: 90, Min: 9, Max: 60, P50: 15, P95: 40, P99: 55},
		{Name: "power.network_w", Kind: "gauge", Value: 0.125},
	}
	base := outcome{Cycles: 4_000_000, Metrics: snap}
	want := digest(base)
	c := newChecker(map[string]string{"run": want})
	if !c.check("run", base) {
		t.Fatalf("unperturbed result flagged: %v", c.problems)
	}

	perturb := func(f func(o *outcome)) outcome {
		o := outcome{Cycles: base.Cycles, Metrics: append(tlc.MetricsSnapshot(nil), snap...)}
		f(&o)
		return o
	}
	for name, o := range map[string]outcome{
		"cycles":        perturb(func(o *outcome) { o.Cycles++ }),
		"gauge ulp":     perturb(func(o *outcome) { o.Metrics[2].Value = math.Nextafter(0.125, 1) }),
		"histogram p99": perturb(func(o *outcome) { o.Metrics[1].P99++ }),
		"metric gone":   perturb(func(o *outcome) { o.Metrics = o.Metrics[:2] }),
		"cycles ci":     perturb(func(o *outcome) { o.CyclesCI = 1 }),
	} {
		c := newChecker(map[string]string{"run": want})
		if c.check("run", o) || len(c.problems) != 1 {
			t.Errorf("%s: perturbed result passed the check", name)
		}
	}

	// Without committed digests, a label must still agree with itself
	// across units.
	c = newChecker(nil)
	if !c.check("run", base) {
		t.Fatal("first result flagged without a reference")
	}
	if c.check("run", perturb(func(o *outcome) { o.Metrics[0].Count++ })) {
		t.Error("a later unit's different result passed")
	}

	// Provenance markers record how a run was produced, not what it
	// computed, and stay out of the digest.
	marked := perturb(func(o *outcome) {
		o.Metrics = append(o.Metrics, tlc.MetricsSnapshot{{Name: "sim.lanes.restored", Kind: "counter", Value: 1, Count: 1}}...)
	})
	if digest(marked) != want {
		t.Error("a provenance marker changed the digest")
	}
}

func TestRefusedRequestCountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"run queue is full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	_, timed := servedPlan(defaultSeed)
	res := drive(srv.Client(), srv.URL, timed[:3], 1, "")
	b := &bench{check: newChecker(nil)}
	for i, r := range res {
		b.result(timed[i].label, recordOutcome(r.rec), r.err)
	}
	if b.attempted != 3 || b.failed != 3 {
		t.Fatalf("attempted %d, failed %d; want 3 refused requests counted as failed", b.attempted, b.failed)
	}
}

// TestDecoratorsAreTransparent runs a small grid twice: through the
// program's own path (a suite's lane pass filling a store, then tlc.Run
// restoring from it) and through the re-composed pipeline with every L2
// and stream call decorated. The digests must be identical, on both the
// restored and the scalar-warm path.
func TestDecoratorsAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a small grid")
	}
	var warm, timed []point
	for _, d := range sweepDesigns {
		o := tlc.Options{RunInstructions: 20_000, WarmInstructions: 200_000, Seed: 7, WarmSeed: 7}
		warm = append(warm, newPoint(d, "gcc", o))
		o.Seed = 11
		timed = append(timed, newPoint(d, "gcc", o))
	}

	store, _ := fillStore(warm, 2)
	want := map[string]string{}
	for _, p := range timed {
		o := p.opt
		o.Checkpoints = store
		var snap tlc.MetricsSnapshot
		o.OnMetrics = func(ev tlc.MetricsEvent) { snap = ev.Snapshot }
		res, err := tlc.Run(p.design, p.bench, o)
		if err != nil {
			t.Fatal(err)
		}
		want[p.label] = digest(outcome{Cycles: res.Cycles, Metrics: snap})
	}

	for _, lanes := range []bool{true, false} {
		p := &pipeline{tr: newTracer(), par: 2, store: snapshot.NewStore(len(warm), "")}
		if lanes {
			if err := p.lanePhase(warm); err != nil {
				t.Fatal(err)
			}
		}
		outs, err := p.pointsPhase(timed)
		if err != nil {
			t.Fatal(err)
		}
		var accesses uint64
		for _, s := range p.tr.spans {
			accesses += s.Layers.Accesses
		}
		if accesses == 0 {
			t.Errorf("lanes=%v: the L2 decorator saw no accesses", lanes)
		}
		for i, o := range outs {
			if got := digest(o); got != want[timed[i].label] {
				t.Errorf("lanes=%v %s: decorated digest %s, program's %s", lanes, timed[i].label, got, want[timed[i].label])
			}
		}
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json's metric lists and
// the metrics this program reports in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, program reports %v", layer, perLayer)
	}
}
