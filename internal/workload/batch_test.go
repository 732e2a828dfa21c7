package workload

import (
	"testing"

	"tlc/internal/cpu"
)

// kernelSpecs is the oracle set for the fused kernel: the twelve benchmarks
// plus synthetic specs that reach every branch the benchmarks leave out —
// hot skew 0, 1 and 2 (and a hot region too small to narrow), cold skew 1
// and 2 without a window, a window smaller than and larger than the cold
// region, mispredict periods that are the default, odd, even, a power of
// two and 1, the default and an explicit serial fraction, store and
// dependence fractions of 0 and 1, all-memory and memory-free streams. The
// synthetic cold region (~12 K blocks) is smaller than the recent-reuse
// reach, so the recent-delta clamp and the stream and window wraps fire.
func kernelSpecs() []Spec {
	base := Spec{FootprintMB: 1, L1MB: 0.03, L1Frac: 0.3, HotMB: 0.25, HotFrac: 0.3,
		StreamFrac: 0.15, StreamRepeat: 1, RecentFrac: 0.1, StoreFrac: 0.3,
		MemFrac: 0.4, DepFrac: 0.5}
	variants := []struct {
		name string
		edit func(*Spec)
	}{
		{"uniform", func(s *Spec) {}},
		{"hotskew1-every7", func(s *Spec) { s.HotSkew, s.MispredictEvery, s.SerialFrac = 1, 7, 0.9 }},
		{"hotskew2-every12", func(s *Spec) { s.HotSkew, s.MispredictEvery = 2, 12 }},
		{"tinyhot-skew1-every16", func(s *Spec) { s.HotMB, s.HotSkew, s.MispredictEvery = 0.0002, 1, 16 }},
		{"coldskew1", func(s *Spec) { s.ColdSkew = 1 }},
		{"coldskew2", func(s *Spec) { s.ColdSkew, s.MispredictEvery = 2, 1 }},
		{"window", func(s *Spec) { s.ColdWindowMB, s.ColdTurnover = 0.25, 0.5 }},
		{"window-oversize", func(s *Spec) { s.ColdWindowMB, s.ColdTurnover, s.ColdSkew = 8, 0.9, 1 }},
		{"stores1-dep1", func(s *Spec) { s.StoreFrac, s.DepFrac = 1, 1 }},
		{"stores0-dep0", func(s *Spec) { s.StoreFrac, s.DepFrac = 0, 0 }},
		{"stores0-dep1", func(s *Spec) { s.StoreFrac, s.DepFrac = 0, 1 }},
		{"allmem", func(s *Spec) { s.MemFrac = 1 }},
		{"nomem", func(s *Spec) { s.MemFrac = 0 }},
	}
	out := Specs()
	for _, v := range variants {
		s := base
		s.Name = "synthetic-" + v.name
		v.edit(&s)
		out = append(out, s)
	}
	return out
}

// TestNextBatchMatchesNext pins the batched delivery path bit-identical to
// scalar Next: same instructions, same post-call stream state, same
// observation counters — including when batch sizes vary and when scalar and
// batched delivery interleave mid-stream.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, spec := range kernelSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			scalar := New(spec, 7)
			batched := New(spec, 7)
			sizes := []int{1, 3, 64, 1000, 4096}
			buf := make([]cpu.Instr, 4096)
			pos := 0
			for round := 0; round < 40; round++ {
				n := sizes[round%len(sizes)]
				if got := batched.NextBatch(buf[:n]); got != n {
					t.Fatalf("NextBatch(%d) = %d", n, got)
				}
				for i := 0; i < n; i++ {
					want := scalar.Next()
					if buf[i] != want {
						t.Fatalf("instr %d: batched %+v != scalar %+v", pos+i, buf[i], want)
					}
				}
				pos += n
				// Interleave a stretch of scalar delivery on the batched
				// generator: the protocols must be freely mixable.
				for i := 0; i < 17; i++ {
					want := scalar.Next()
					if got := batched.Next(); got != want {
						t.Fatalf("interleaved instr: batched %+v != scalar %+v", got, want)
					}
				}
				pos += 17
			}
			if scalar.State() != batched.State() {
				t.Fatalf("stream state diverged: scalar %+v batched %+v", scalar.State(), batched.State())
			}
			if scalar.counters != batched.counters {
				t.Fatalf("counters diverged: scalar %+v batched %+v", scalar.counters, batched.counters)
			}
		})
	}
}

// TestNextMemsMatchesNext pins the warm fast path bit-identical to scalar
// delivery: the materialized memory operations match the IsMem instructions
// of the scalar stream in order, the skipped non-memory runs advance the RNG
// identically (post-call State equality proves it), and the observation
// counters agree.
func TestNextMemsMatchesNext(t *testing.T) {
	for _, spec := range kernelSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			scalar := New(spec, 11)
			fast := New(spec, 11)
			buf := make([]cpu.MemRef, 257)
			var consumedTotal uint64
			const total = 300_000
			for consumedTotal < total {
				n, consumed := fast.NextMems(buf, total-consumedTotal)
				if consumed == 0 {
					t.Fatal("NextMems made no progress")
				}
				consumedTotal += consumed
				// The scalar arm replays the same instruction span.
				got := 0
				for i := uint64(0); i < consumed; i++ {
					in := scalar.Next()
					if !in.IsMem {
						continue
					}
					if got >= n {
						t.Fatalf("scalar stream has more mem ops than NextMems reported (%d)", n)
					}
					if buf[got].Block != in.Block || buf[got].Store != in.IsStore {
						t.Fatalf("mem op %d: fast {%d %v} != scalar {%d %v}",
							got, buf[got].Block, buf[got].Store, in.Block, in.IsStore)
					}
					got++
				}
				if got != n {
					t.Fatalf("NextMems reported %d mem ops, scalar span has %d", n, got)
				}
				if scalar.State() != fast.State() {
					t.Fatalf("stream state diverged after %d instructions", consumedTotal)
				}
			}
			// Mispredict/memOp/store counters must match; the region counters
			// advance inside nextBlock on both paths.
			if scalar.counters != fast.counters {
				t.Fatalf("counters diverged: scalar %+v fast %+v", scalar.counters, fast.counters)
			}
			// After a warm stretch, detailed delivery must continue
			// seamlessly on both generators.
			for i := 0; i < 10_000; i++ {
				if got, want := fast.Next(), scalar.Next(); got != want {
					t.Fatalf("post-warm instr %d: %+v != %+v", i, got, want)
				}
			}
		})
	}
}

// TestMixedDeliveryMatchesNext drives one generator through all three
// delivery protocols in rotation — Next, NextBatch, NextMems, with odd and
// varying sizes — against a scalar twin, comparing the delivered stream,
// State() and the observation counters after every call: the fused kernel's
// two modes and the scalar reference hand the stream position to each other
// exactly.
func TestMixedDeliveryMatchesNext(t *testing.T) {
	for _, spec := range kernelSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			scalar, mixed := New(spec, 5), New(spec, 5)
			ins := make([]cpu.Instr, 777)
			mems := make([]cpu.MemRef, 131)
			for round := 0; round < 90; round++ {
				switch round % 3 {
				case 0:
					for i := 0; i < 1+round; i++ {
						if got, want := mixed.Next(), scalar.Next(); got != want {
							t.Fatalf("round %d Next %d: %+v != %+v", round, i, got, want)
						}
					}
				case 1:
					n := 1 + (round*53)%len(ins)
					mixed.NextBatch(ins[:n])
					for i := 0; i < n; i++ {
						if want := scalar.Next(); ins[i] != want {
							t.Fatalf("round %d NextBatch %d: %+v != %+v", round, i, ins[i], want)
						}
					}
				case 2:
					n, consumed := mixed.NextMems(mems, uint64(1+round*41))
					got := 0
					for i := uint64(0); i < consumed; i++ {
						in := scalar.Next()
						if !in.IsMem {
							continue
						}
						if got >= n || mems[got] != (cpu.MemRef{Block: in.Block, Store: in.IsStore}) {
							t.Fatalf("round %d NextMems: mem op %d diverged", round, got)
						}
						got++
					}
					if got != n {
						t.Fatalf("round %d NextMems reported %d mem ops, scalar span has %d", round, n, got)
					}
				}
				if scalar.State() != mixed.State() {
					t.Fatalf("round %d: state diverged: scalar %+v mixed %+v", round, scalar.State(), mixed.State())
				}
				if scalar.counters != mixed.counters {
					t.Fatalf("round %d: counters diverged: scalar %+v mixed %+v", round, scalar.counters, mixed.counters)
				}
			}
		})
	}
}

// TestNextBatchDoesNotAllocate pins batched delivery at zero allocations per
// call at steady state, for both the detailed and the warm-mode entry
// points.
func TestNextBatchDoesNotAllocate(t *testing.T) {
	spec, _ := SpecByName("oltp")
	g := New(spec, 3)
	buf := make([]cpu.Instr, 4096)
	mems := make([]cpu.MemRef, 2048)
	g.NextBatch(buf)
	g.NextMems(mems, 1<<20)
	if allocs := testing.AllocsPerRun(20, func() { g.NextBatch(buf) }); allocs != 0 {
		t.Errorf("NextBatch allocates %.2f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { g.NextMems(mems, 1<<20) }); allocs != 0 {
		t.Errorf("NextMems allocates %.2f per call, want 0", allocs)
	}
}
