package cpu

import (
	"math/rand"
	"testing"

	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

// runReference is the timed loop as it was before Core.run indexed its rings
// with wrapping counters: every ring slot and the fetch cycle are divisions
// of the epoch instruction index. It is the oracle TestRunMatchesReference
// holds the counter-indexed loop to.
func (c *Core) runReference(s scalarStream, n uint64) Result {
	c.res = Result{Instructions: n}
	rob := uint64(c.sys.ROBEntries)
	sched := uint64(c.sys.SchedulerEntries)
	width := sim.Time(c.sys.FetchWidth)
	base := c.epochBase
	start := c.epochInstrs
	last := c.lastRetire
	for j := uint64(0); j < n; j++ {
		in := s.Next()
		i := start + j
		issue := base + sim.Time(i)/width + c.fetchPenalty
		if i >= rob {
			if t := c.retire[i%rob]; t > issue {
				issue = t
				c.cum.robStalls++
			}
		}
		if i >= sched {
			if t := c.issued[i%sched]; t > issue {
				issue = t
				c.cum.schedStalls++
			}
		}
		issueAt, complete := c.execute(issue, in)
		c.issued[i%sched] = issueAt
		if in.Mispredict {
			c.fetchPenalty += sim.Time(c.sys.PipelineStages)
			c.cum.mispredicts++
		}
		c.prevComplete = complete
		slot := c.retire[(i+rob-1)%rob]
		if i == 0 {
			slot = base
		}
		if complete > slot {
			slot = complete
		}
		if i >= uint64(width) {
			if t := c.retire[(i-uint64(width))%rob] + 1; t > slot {
				slot = t
			}
		}
		c.retire[i%rob] = slot
		last = slot
	}
	c.epochInstrs = start + n
	c.lastRetire = last
	c.res.Cycles = last
	return c.res
}

// randStream is a seeded mix of loads, stores, dependent ALU chains, and
// mispredicts over a footprint several times the L1, so the timed loop sees
// L1 misses, dirty evictions, MSHR waits, and ROB and scheduler stalls.
type randStream struct{ r *rand.Rand }

func (s randStream) Next() Instr {
	x := s.r.Intn(100)
	switch {
	case x < 35:
		return Instr{IsMem: true, IsStore: x < 10, Block: mem.Block(s.r.Intn(8192)), Dep: x%3 == 0}
	case x < 37:
		return Instr{Mispredict: true}
	default:
		return Instr{Dep: x%2 == 0}
	}
}
func (s randStream) NextBatch(buf []Instr) int { return fillBatch(s, buf) }
func (s randStream) NextMems(buf []MemRef, maxInstr uint64) (int, uint64) {
	return fillMems(s, buf, maxInstr)
}

// hashL2 is a stateless L2 stand-in: latency and hit/miss are a function of
// the block alone, so two cores issuing the same request sequence see the
// same outcomes.
type hashL2 struct{}

func (hashL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	h := uint64(req.Block) * 0x9e3779b97f4a7c15 >> 40
	lat := sim.Time(8 + h%40)
	hit := h%5 != 0
	complete := at + lat
	if !hit {
		complete += 300
	}
	return l2.Outcome{Hit: hit, ResolveAt: at + lat, CompleteAt: complete}
}
func (hashL2) Warm(mem.Block)          {}
func (hashL2) Contains(mem.Block) bool { return true }

// TestRunMatchesReference pins the counter-indexed timed loop to the
// division-indexed reference: every Result and the epoch counters agree
// across a RunFrom and a chain of Resume calls of odd sizes (crossing the
// delivery batch size, so counters carry across batches and calls), on the
// default core and on one whose ROB, scheduler, and fetch width are not
// powers of two and do not divide one another.
func TestRunMatchesReference(t *testing.T) {
	odd := config.DefaultSystem()
	odd.ROBEntries, odd.SchedulerEntries, odd.FetchWidth = 96, 40, 3
	for _, tc := range []struct {
		name string
		sys  config.System
	}{{"default", config.DefaultSystem()}, {"rob96-sched40-width3", odd}} {
		sys := tc.sys
		t.Run(tc.name, func(t *testing.T) {
			got, want := New(sys, hashL2{}), New(sys, hashL2{})
			gs, ws := randStream{rand.New(rand.NewSource(3))}, randStream{rand.New(rand.NewSource(3))}
			chunks := []uint64{1, 2, 3, 97, 4097, 5, 12_289, 1, 31, 9_001}
			for k, n := range chunks {
				var g, w Result
				if k == 0 {
					g = got.RunFrom(gs, n, 1000)
					want.resetTiming()
					want.epochBase, want.lastRetire = 1000, 1000
					w = want.runReference(ws, n)
				} else {
					g, w = got.Resume(gs, n), want.runReference(ws, n)
				}
				if g != w {
					t.Fatalf("chunk %d (%d instrs): result %+v, reference %+v", k, n, g, w)
				}
				if got.cum != want.cum {
					t.Fatalf("chunk %d (%d instrs): counters %+v, reference %+v", k, n, got.cum, want.cum)
				}
			}
			c := got.cum
			if c.robStalls == 0 || c.schedStalls == 0 || c.mshrWaits == 0 || c.mispredicts == 0 || c.l2Stores == 0 {
				t.Fatalf("stream too tame to exercise the loop: %+v", c)
			}
		})
	}
}
