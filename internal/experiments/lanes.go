package experiments

import "tlc"

// GridPoint is one point of an explicit sweep grid: the full configuration
// of one run, the shape the lane planner and the grid executor consume.
type GridPoint struct {
	Design tlc.Design
	Bench  string
	Opt    tlc.Options
}

// LaneGroup is one plan entry: the distinct designs of a grid whose points
// share a workload stream — same benchmark, same effective warm seed, same
// warm length, same checkpoint store — so one lane-parallel pass
// (tlc.WarmLanes) warms all of them off a single generator traversal.
// Groups with fewer than two designs gain nothing from sharing; planners
// report them and the executor leaves those points to scalar warm-up.
type LaneGroup struct {
	Bench   string
	Designs []tlc.Design
	// Opt is a representative option set of the group's points. The fields
	// a lane pass reads (warm plan, checkpoint store, cancellation) are
	// equal across the group by construction; the rest differ per point
	// and are irrelevant to functional warm-up.
	Opt tlc.Options
}

// laneKey is the grouping key: everything that determines whether two grid
// points would consume the identical warm stream into the same store.
// The warm length is keyed raw (zero means per-benchmark automatic, which
// is equal within a benchmark anyway); the store pointer keys identity, so
// grids spanning stores never share a pass.
type laneKey struct {
	bench    string
	warmSeed int64
	warm     uint64
	store    *tlc.CheckpointStore
}

// LanePlanner groups grid points for lane-parallel warm-up. A planner
// reuses its internal index and group storage across Plan calls, so
// steady-state planning allocates nothing (the alloc pin covers this); it
// is not safe for concurrent use — give each goroutine its own, or lock.
type LanePlanner struct {
	idx    map[laneKey]int
	groups []LaneGroup
	scalar int
	// of[i] is point i's group index, -1 for a point with no store.
	of []int
}

// NewLanePlanner returns an empty planner.
func NewLanePlanner() *LanePlanner {
	return &LanePlanner{idx: make(map[laneKey]int)}
}

// Plan groups points by shared workload stream, in first-occurrence order
// (deterministic for a deterministic grid). Points without a checkpoint
// store cannot carry a warm-up to their run and are counted straight to
// scalar fallback. The returned slice and its groups are valid until the
// next Plan call.
func (p *LanePlanner) Plan(points []GridPoint) []LaneGroup {
	for k := range p.idx {
		delete(p.idx, k)
	}
	p.groups = p.groups[:0]
	p.scalar = 0
	p.of = p.of[:0]
	for i := range points {
		pt := &points[i]
		if pt.Opt.Checkpoints == nil {
			p.scalar++
			p.of = append(p.of, -1)
			continue
		}
		warmSeed := pt.Opt.WarmSeed
		if warmSeed == 0 {
			warmSeed = pt.Opt.Seed
		}
		k := laneKey{pt.Bench, warmSeed, pt.Opt.WarmInstructions, pt.Opt.Checkpoints}
		gi, ok := p.idx[k]
		if !ok {
			gi = len(p.groups)
			if gi < cap(p.groups) {
				// Reuse the retired group's Designs backing array.
				p.groups = p.groups[:gi+1]
				g := &p.groups[gi]
				g.Bench = pt.Bench
				g.Opt = pt.Opt
				g.Designs = g.Designs[:0]
			} else {
				p.groups = append(p.groups, LaneGroup{Bench: pt.Bench, Opt: pt.Opt})
			}
			p.idx[k] = gi
		}
		p.of = append(p.of, gi)
		g := &p.groups[gi]
		if !containsDesign(g.Designs, pt.Design) {
			g.Designs = append(g.Designs, pt.Design)
		}
	}
	// Lone designs share nothing: their points fall back to scalar
	// warm-up inside their own runs.
	for i := range p.groups {
		if len(p.groups[i].Designs) < 2 {
			p.scalar++
		}
	}
	return p.groups
}

// ScalarPoints reports how many points of the last Plan were left to
// scalar execution: points with no checkpoint store, plus one per group
// too small to share.
func (p *LanePlanner) ScalarPoints() int { return p.scalar }

func containsDesign(ds []tlc.Design, d tlc.Design) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}
