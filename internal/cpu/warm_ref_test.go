package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

// warmReference is the per-instruction reference warm loop the core ran
// for streams without a batched protocol: every instruction crosses the
// Next call, memory ops touch the L1 in two set scans, and L2 installs
// dispatch one at a time. It defines the state evolution Warm must
// reproduce exactly; TestWarmMatchesReference holds Warm to it.
func (c *Core) warmReference(s scalarStream, n uint64) {
	for i := uint64(0); i < n; i++ {
		if i%streamBatch == 0 && c.cancelled() {
			return
		}
		in := s.Next()
		if !in.IsMem {
			continue
		}
		if idx, hit := c.l1.TouchAt(in.Block); hit {
			if in.IsStore {
				c.dirty[idx] = 1
			}
			continue
		}
		// L1 miss reaches the L2 functionally. The incoming block takes
		// the victim's line, so its dirty bit is read before being
		// overwritten with the new line's state.
		idx, victim, evicted := c.l1.InsertAt(in.Block)
		if evicted && c.dirty[idx] != 0 {
			if c.countWarmMisses && !c.l2.Contains(victim) {
				c.warmL2Misses++
			}
			c.l2.Warm(victim)
		}
		if in.IsStore {
			c.dirty[idx] = 1
		} else {
			c.dirty[idx] = 0
			if c.countWarmMisses && !c.l2.Contains(in.Block) {
				c.warmL2Misses++
			}
			c.l2.Warm(in.Block)
		}
	}
}

// warmStream is a seeded mix of ALU ops, loads, and stores. Half the
// references fall in a 512-block hot region the L1 holds, the rest spread
// over 16384 blocks (sixteen L1s), so a warm pass sees hits, clean misses,
// and dirty evictions in volume. consumed counts the instructions
// delivered, so two arms can be checked for equal stream positions.
type warmStream struct {
	r        *rand.Rand
	consumed uint64
}

func (s *warmStream) Next() Instr {
	s.consumed++
	x := s.r.Intn(100)
	if x >= 40 {
		return Instr{Dep: x%2 == 0}
	}
	b := mem.Block(s.r.Intn(16384))
	if x%2 == 0 {
		b %= 512
	}
	return Instr{IsMem: true, IsStore: x < 15, Block: b}
}
func (s *warmStream) NextBatch(buf []Instr) int { return fillBatch(s, buf) }
func (s *warmStream) NextMems(buf []MemRef, maxInstr uint64) (int, uint64) {
	return fillMems(s, buf, maxInstr)
}

// recordL2 records the ordered sequence of functionally warmed blocks. It
// does not implement l2.Warmer, so Warm reaches it one block at a time.
// Contains answers from the set of blocks warmed so far.
type recordL2 struct {
	warmed []mem.Block
	seen   map[mem.Block]bool
}

func (r *recordL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	return l2.Outcome{Hit: true, ResolveAt: at, CompleteAt: at}
}
func (r *recordL2) Warm(b mem.Block) {
	r.warmed = append(r.warmed, b)
	r.seen[b] = true
}
func (r *recordL2) Contains(b mem.Block) bool { return r.seen[b] }

// recordBulkL2 is recordL2 with the l2.Warmer bulk entry point.
type recordBulkL2 struct{ recordL2 }

func (r *recordBulkL2) WarmBulk(blocks []mem.Block) {
	for _, b := range blocks {
		r.Warm(b)
	}
}

// TestWarmMatchesReference pins the batched warm kernel (NextMems fills,
// the fused WarmSweep, bulk or per-block L2 delivery of each sweep's spill)
// to the per-instruction reference: after every one of a chain of odd-sized
// Warm calls, the L1 snapshot, the ordered L2 warm sequence, and the
// stream position agree, for an L2 with and without l2.Warmer.
//
// Warm-miss counting is exercised too, but not for equality: the kernel
// probes a whole spill before installing it, so a block spilled twice in
// one sweep counts twice where the reference counts it once. With this
// L2's monotone Contains the kernel's count is therefore never below the
// reference's.
func TestWarmMatchesReference(t *testing.T) {
	sys := config.DefaultSystem()
	chunks := []uint64{1, 7, 513, 4097, 3, 20_011, 99, 65_537}
	for _, tc := range []struct {
		name  string
		bulk  bool
		count bool
	}{
		{"per-block", false, false},
		{"bulk", true, false},
		{"per-block/count", false, true},
		{"bulk/count", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkL2 := func() (l2.Cache, *recordL2) {
				r := recordL2{seen: map[mem.Block]bool{}}
				if tc.bulk {
					b := &recordBulkL2{r}
					return b, &b.recordL2
				}
				return &r, &r
			}
			gotL2, gotRec := mkL2()
			wantL2, wantRec := mkL2()
			if _, ok := gotL2.(l2.Warmer); ok != tc.bulk {
				t.Fatalf("fake L2 implements l2.Warmer = %v, want %v", ok, tc.bulk)
			}
			got, want := New(sys, gotL2), New(sys, wantL2)
			got.SetWarmMissCounting(tc.count)
			want.SetWarmMissCounting(tc.count)
			gs := &warmStream{r: rand.New(rand.NewSource(5))}
			ws := &warmStream{r: rand.New(rand.NewSource(5))}
			for k, n := range chunks {
				got.Warm(gs, n)
				want.warmReference(ws, n)
				if gs.consumed != ws.consumed {
					t.Fatalf("chunk %d (%d instrs): stream at %d, reference at %d", k, n, gs.consumed, ws.consumed)
				}
				if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
					t.Fatalf("chunk %d (%d instrs): L1 state diverged from the reference", k, n)
				}
				if !reflect.DeepEqual(gotRec.warmed, wantRec.warmed) {
					t.Fatalf("chunk %d (%d instrs): L2 warm sequence diverged (%d blocks, reference %d)",
						k, n, len(gotRec.warmed), len(wantRec.warmed))
				}
				if g, w := got.WarmL2Misses(), want.WarmL2Misses(); g < w || (!tc.count && g != 0) {
					t.Fatalf("chunk %d (%d instrs): %d warm L2 misses, reference %d", k, n, g, w)
				}
			}
			hits, clean, dirty := warmCoverage(sys, 5, gs.consumed)
			if hits == 0 || clean == 0 || dirty == 0 {
				t.Fatalf("stream too tame: %d hits, %d clean misses, %d dirty evictions", hits, clean, dirty)
			}
			if tc.count && want.WarmL2Misses() == 0 {
				t.Fatal("counting arm counted no warm L2 misses")
			}
		})
	}
}

// warmCoverage replays seed's warmStream for n instructions through a
// shadow L1 of sys's geometry and counts the L1 hits, the misses that
// evict nothing dirty, and the dirty evictions — the three cases whose
// spill order TestWarmMatchesReference checks.
func warmCoverage(sys config.System, seed int64, n uint64) (hits, clean, dirty int) {
	l1 := cache.NewSetAssoc(sys.L1Bytes/mem.BlockBytes/sys.L1Assoc, sys.L1Assoc)
	d := make([]bool, l1.Blocks())
	s := &warmStream{r: rand.New(rand.NewSource(seed))}
	for i := uint64(0); i < n; i++ {
		in := s.Next()
		if !in.IsMem {
			continue
		}
		idx, hit, _, evicted := l1.TouchOrInsertAt(in.Block)
		switch {
		case hit:
			hits++
			d[idx] = d[idx] || in.IsStore
			continue
		case evicted && d[idx]:
			dirty++
		default:
			clean++
		}
		d[idx] = in.IsStore
	}
	return hits, clean, dirty
}
