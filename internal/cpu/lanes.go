package cpu

import (
	"bytes"

	"tlc/internal/cache"
	"tlc/internal/l2"
	"tlc/internal/mem"
)

// LaneWarmer warms K cores off one shared stream: the structure-of-arrays
// counterpart of Core.Warm. Each core contributes one lane — its L1
// geometry, array contents, and dirty bits — and the whole group consumes
// the stream's generation and batching cost once instead of K times.
//
// Warm-up is functional and the L2 installs a warm pass emits never feed
// back into L1 decisions, so each lane's evolution is independent of its
// neighbors: lane l finishes in exactly the state core l's own Warm call
// over an identical stream would leave (the lane/scalar equivalence tests
// pin this bit for bit). The cores' L2 designs may differ arbitrarily —
// only the stream is shared.
//
// Independence buys a second amortization: lanes whose L1 geometry AND
// current L1 state coincide must trace identical L1 trajectories and emit
// identical spills, so the warmer groups them into cohorts and sweeps one
// leader lane per cohort, fanning the leader's spill out to every member's
// L2. A design-grid group — six L2 designs behind the paper's one L1 —
// collapses to a single cohort, leaving only the per-design L2 fills as
// per-lane work.
type LaneWarmer struct {
	cores []*Core
	geoms []cache.LaneGeom
	// cohort[i] is the lane index of the leader whose L1 evolution lane i
	// shares (leaders have cohort[i] == i); prev is the assignment the
	// current lanes block was built for, so unchanged plans reuse it.
	cohort []int
	prev   []int
	// leaders lists leader lane indices in slot order; slot[i] is the
	// leader's slot in lanes for lane i (members share their leader's).
	leaders []int
	slot    []int
	lanes   *cache.Lanes // one slot per leader
	memBuf  []MemRef
	spills  [][]mem.Block // one per leader slot
	batches uint64
}

// NewLaneWarmer builds a warmer over cores. The lane block and spill
// buffers are sized on the first Warm call, once the cohort structure of
// the cores' states is known; after that Warm is allocation-free until the
// structure changes.
func NewLaneWarmer(cores []*Core) *LaneWarmer {
	if len(cores) == 0 {
		panic("cpu: lane warmer needs at least one core")
	}
	geoms := make([]cache.LaneGeom, len(cores))
	for i, c := range cores {
		geoms[i] = cache.LaneGeom{Sets: c.l1.Sets(), Assoc: c.l1.Assoc()}
	}
	return &LaneWarmer{
		cores:   cores,
		geoms:   geoms,
		cohort:  make([]int, len(cores)),
		leaders: make([]int, 0, len(cores)),
		slot:    make([]int, len(cores)),
		memBuf:  make([]MemRef, memBatch),
	}
}

// Batches reports how many shared stream batches the warmer has consumed —
// each one a batch every lane would otherwise have fetched for itself.
func (lw *LaneWarmer) Batches() uint64 { return lw.batches }

// Cohorts reports how many distinct L1 trajectories the last Warm call
// swept (zero before the first call). K lanes in c cohorts pay for c L1
// sweeps instead of K.
func (lw *LaneWarmer) Cohorts() int { return len(lw.leaders) }

// planCohorts groups lanes by (geometry, current L1 state, dirty bits) and
// rebuilds the leader lane block only when the assignment changed since the
// last call — the steady-state path compares and returns without
// allocating. State equality is transitive, so matching any earlier member
// of a cohort proves equality with its leader.
func (lw *LaneWarmer) planCohorts() {
	cohort := lw.cohort
	for i, c := range lw.cores {
		cohort[i] = i
		for j := 0; j < i; j++ {
			if lw.geoms[i] == lw.geoms[j] &&
				lw.cores[j].l1.StateEqual(c.l1) &&
				bytes.Equal(lw.cores[j].dirty, c.dirty) {
				cohort[i] = cohort[j]
				break
			}
		}
	}
	if lw.lanes != nil && intsEqual(cohort, lw.prev) {
		return
	}
	lw.leaders = lw.leaders[:0]
	for i, leader := range cohort {
		if leader == i {
			lw.slot[i] = len(lw.leaders)
			lw.leaders = append(lw.leaders, i)
		} else {
			lw.slot[i] = lw.slot[leader]
		}
	}
	geoms := make([]cache.LaneGeom, len(lw.leaders))
	for s, li := range lw.leaders {
		geoms[s] = lw.geoms[li]
	}
	lw.lanes = cache.NewLanes(geoms)
	lw.spills = make([][]mem.Block, len(lw.leaders))
	for s := range lw.spills {
		// Worst case per sweep is a dirty writeback plus a load fill per
		// reference, per lane — the same bound l2WarmCap encodes — so the
		// branch-free kernel's headroom requirement always holds.
		lw.spills[s] = make([]mem.Block, 0, l2WarmCap)
	}
	lw.prev = append(lw.prev[:0], cohort...)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Warm advances s by n instructions functionally, applying every memory
// reference to each cohort leader's L1 lane and routing the leader's spill
// — dirty victims then missing loads, in reference order — to every cohort
// member's L2 via the lane-bulk entry point. cancel, if non-nil, is polled
// once per batch; a non-nil error abandons the pass and is returned with
// the cores untouched (lane state is only stored back on completion).
func (lw *LaneWarmer) Warm(s Source, n uint64, cancel func() error) error {
	lw.planCohorts()
	for si, li := range lw.leaders {
		c := lw.cores[li]
		lw.lanes.LoadLane(si, c.l1, c.dirty)
	}
	for remaining := n; remaining > 0; {
		if cancel != nil {
			if err := cancel(); err != nil {
				return err
			}
		}
		m, consumed := s.NextMems(lw.memBuf, remaining)
		if consumed == 0 {
			panic("cpu: warm stream made no progress")
		}
		remaining -= consumed
		lw.batches++
		for si := range lw.spills {
			lw.spills[si] = lw.spills[si][:0]
		}
		out := lw.lanes.WarmSweepLanes(lw.memBuf[:m], lw.spills)
		for si := range lw.spills {
			lw.spills[si] = out[si]
		}
		for i, c := range lw.cores {
			l2.WarmAll(c.l2, out[lw.slot[i]])
		}
	}
	for i, c := range lw.cores {
		lw.lanes.StoreLane(lw.slot[i], c.l1, c.dirty)
	}
	return nil
}
