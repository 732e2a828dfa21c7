package tlcache

import (
	"math"
	"math/rand"
	"testing"

	"tlc/internal/config"
	"tlc/internal/ecc"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

func TestNoiseDisabledByDefault(t *testing.T) {
	c := New(config.TLC, testMemLat)
	c.Warm(mem.Block(1))
	c.Access(0, mem.Request{Block: 1, Type: mem.Load})
	if c.ECCCorrections != 0 || c.ECCRetries != 0 {
		t.Fatal("noise active without SetNoise")
	}
}

func TestZeroRateInjectsNothing(t *testing.T) {
	c := New(config.TLC, testMemLat)
	c.SetNoise(0)
	var at sim.Time
	for i := 0; i < 2000; i++ {
		b := mem.Block(i)
		c.Warm(b)
		c.Access(at, mem.Request{Block: b, Type: mem.Load})
		at += 50
	}
	if c.ECCCorrections != 0 || c.ECCRetries != 0 {
		t.Fatal("zero bit-error rate produced errors")
	}
}

func TestHighNoiseCorrectsAndRetries(t *testing.T) {
	c := New(config.TLC, testMemLat)
	c.SetNoise(1e-3) // aggressive: ~7% single, ~0.2% double per word
	var at sim.Time
	loads := 20000
	for i := 0; i < loads; i++ {
		b := mem.Block(i % 4096)
		c.Warm(b)
		c.Access(at, mem.Request{Block: b, Type: mem.Load})
		at += 40
	}
	if c.ECCCorrections == 0 {
		t.Fatal("no single-bit corrections at BER 1e-3")
	}
	if c.ECCRetries == 0 {
		t.Fatal("no retries at BER 1e-3")
	}
	// Expected correction rate: ~7% per word x 8 words per response.
	perLoad := float64(c.ECCCorrections) / float64(loads)
	if perLoad < 0.2 || perLoad > 1.5 {
		t.Fatalf("corrections per load %.3f outside the binomial expectation", perLoad)
	}
}

func TestRetryDelaysResolutionAndBreaksPredictability(t *testing.T) {
	c := New(config.TLC, testMemLat)
	c.SetNoise(0.02) // extreme: most responses carry a double error
	b := mem.Block(42)
	c.Warm(b)
	out := c.Access(1000, mem.Request{Block: b, Type: mem.Load})
	if c.ECCRetries == 0 {
		t.Skip("deterministic draw produced no double error for this block")
	}
	if out.Predictable {
		t.Fatal("a retried lookup must be unpredictable")
	}
	if out.ResolveAt-1000 <= c.Nominal(b) {
		t.Fatal("retry did not lengthen resolution")
	}
}

func TestNoiseDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		c := New(config.TLC, testMemLat)
		c.SetNoise(5e-4)
		var at sim.Time
		for i := 0; i < 5000; i++ {
			b := mem.Block(i % 512)
			c.Warm(b)
			c.Access(at, mem.Request{Block: b, Type: mem.Load})
			at += 30
		}
		return c.ECCCorrections, c.ECCRetries
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("noise not deterministic: (%d,%d) vs (%d,%d)", c1, r1, c2, r2)
	}
}

func TestWordFateDistributionMatchesBinomial(t *testing.T) {
	n := &Noise{}
	c := New(config.TLC, testMemLat)
	c.SetNoise(1e-3)
	n = c.noise
	rng := rand.New(rand.NewSource(9))
	var singles, doubles, total int
	for i := 0; i < 200000; i++ {
		b := mem.Block(rng.Uint64())
		switch n.wordFate(b, sim.Time(rng.Uint64()%1e9), rng.Intn(8)) {
		case ecc.Corrected:
			singles++
		case ecc.Uncorrectable:
			doubles++
		}
		total++
	}
	wantSingle := 72 * 1e-3 * math.Pow(1-1e-3, 71)
	gotSingle := float64(singles) / float64(total)
	if math.Abs(gotSingle-wantSingle)/wantSingle > 0.1 {
		t.Fatalf("single-flip rate %.4f, want ~%.4f", gotSingle, wantSingle)
	}
	if doubles == 0 {
		t.Fatal("no double flips sampled at BER 1e-3")
	}
}

// TestECCRetryBudget: near a rate of one every response fails its check,
// and the retry chain used to run forever. It now ends after maxECCRetries
// re-requests, counted in ecc.retry_exhausted.
func TestECCRetryBudget(t *testing.T) {
	c := New(config.TLC, testMemLat)
	if _, ok := c.Metrics().Snapshot(0).Value("ecc.retry_exhausted"); ok {
		t.Fatal("ecc.retry_exhausted registered without noise")
	}
	c.SetNoise(0.9)
	c.SetNoise(0.9) // re-arming the noise must not re-register the counter
	b := mem.Block(42)
	c.Warm(b)
	out := c.Access(1000, mem.Request{Block: b, Type: mem.Load})
	if c.ECCRetryExhausted != 1 || c.ECCRetries != maxECCRetries {
		t.Fatalf("%d exhausted, %d retries; want 1, %d", c.ECCRetryExhausted, c.ECCRetries, maxECCRetries)
	}
	if out.Predictable || out.ResolveAt-1000 <= c.Nominal(b) {
		t.Fatalf("exhausted lookup resolved predictably at %d", out.ResolveAt)
	}
	if v, _ := c.Metrics().Snapshot(0).Value("ecc.retry_exhausted"); v != 1 {
		t.Fatalf("ecc.retry_exhausted = %v, want 1", v)
	}
}
