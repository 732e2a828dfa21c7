package experiments

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tlc"
	"tlc/internal/workload"
)

// LaneCounters accumulates the sim.lanes.* spine of grid executions. It is
// safe for concurrent use, and one value may collect across many grids.
type LaneCounters struct {
	Groups  atomic.Uint64 // passes that warmed at least one lane
	Lanes   atomic.Uint64 // configurations warmed by those passes
	Batches atomic.Uint64 // stream batches consumed once for a whole group
	Scalar  atomic.Uint64 // points left to scalar warm-up
	wall    atomic.Int64  // summed pass wall time, nanoseconds
}

// Wall is the summed wall-clock time of the counted passes (CPU-seconds:
// passes running in parallel overlap).
func (c *LaneCounters) Wall() time.Duration { return time.Duration(c.wall.Load()) }

// Grid is the one plan-then-warm executor: Suite.RunAll, Suite.WarmGrid,
// tlcsweep's local grids and tlcd's sweep and figure handlers all run
// through it.
type Grid struct {
	Points []GridPoint
	// Run executes point i. Nil makes the grid warm-only: passes run,
	// points do not.
	Run func(i int) error
	// NoLanes skips planning and passes; every point warms scalar inside
	// its own run, and no counter moves.
	NoLanes bool
	// Lanes, when non-nil, collects the passes' counters.
	Lanes *LaneCounters
}

// Execute runs the grid on par workers (at least one). Each lane group's
// tlc.WarmLanes pass is a job on the pool; once it has stored its
// checkpoints, the group's points are released. Released points run before
// any new pass starts, passes start in passOrder, and points with no
// checkpoint store or in single-design groups are runnable at once.
//
// Pass errors are dropped: a point its pass could not warm warms scalar in
// its own run, which reports its own error. A pass whose Cancel already
// fails is skipped rather than built and pre-warmed for nothing. Every
// point is attempted, and Execute returns the lowest-index point's error.
func (g Grid) Execute(par int) error {
	var groups []LaneGroup
	var members [][]int // point indices released by each group's pass
	var order, ready []int
	if g.NoLanes {
		for i := range g.Points {
			ready = append(ready, i)
		}
	} else {
		p := NewLanePlanner()
		groups = p.Plan(g.Points)
		if g.Lanes != nil {
			g.Lanes.Scalar.Add(uint64(p.ScalarPoints()))
		}
		members = make([][]int, len(groups))
		for i, gi := range p.of {
			if gi >= 0 && len(groups[gi].Designs) >= 2 {
				members[gi] = append(members[gi], i)
			} else {
				ready = append(ready, i)
			}
		}
		order = passOrder(groups)
	}
	if g.Run == nil {
		ready = nil
	}

	var (
		mu       sync.Mutex
		wake     = sync.NewCond(&mu)
		inFlight int // passes running
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		mu.Lock()
		defer mu.Unlock()
		for {
			switch {
			case len(ready) > 0:
				i := ready[0]
				ready = ready[1:]
				mu.Unlock()
				err := g.Run(i)
				mu.Lock()
				if err != nil && (firstIdx < 0 || i < firstIdx) {
					firstIdx, firstErr = i, err
				}
			case len(order) > 0:
				gi := order[0]
				order = order[1:]
				inFlight++
				mu.Unlock()
				g.pass(&groups[gi])
				mu.Lock()
				inFlight--
				if g.Run != nil {
					ready = append(ready, members[gi]...)
				}
				wake.Broadcast()
			case inFlight > 0:
				wake.Wait() // a running pass may still release points
			default:
				return
			}
		}
	}
	par = max(par, 1)
	wg.Add(par)
	for w := 0; w < par; w++ {
		go worker()
	}
	wg.Wait()
	return firstErr
}

// pass runs one group's shared warm pass and counts what it warmed.
func (g Grid) pass(lg *LaneGroup) {
	if c := lg.Opt.Cancel; c != nil && c() != nil {
		return
	}
	start := time.Now()
	st, err := tlc.WarmLanes(lg.Designs, lg.Bench, lg.Opt)
	if err != nil || st.Lanes == 0 || g.Lanes == nil {
		return
	}
	g.Lanes.Groups.Add(1)
	g.Lanes.Lanes.Add(uint64(st.Lanes))
	g.Lanes.Batches.Add(st.Batches)
	g.Lanes.wall.Add(int64(time.Since(start)))
}

// passOrder lists the groups that get a pass (two or more designs) by
// effective warm length, shortest first, ties in group (first-occurrence)
// order. A point's result lands no sooner than its pass, and warm lengths
// run from 4 M to 24 M instructions, so shortest-first releases the most
// points earliest.
func passOrder(groups []LaneGroup) []int {
	var order []int
	warm := make([]uint64, len(groups))
	for gi := range groups {
		if len(groups[gi].Designs) < 2 {
			continue
		}
		order = append(order, gi)
		warm[gi] = groups[gi].Opt.WarmInstructions
		if spec, ok := workload.SpecByName(groups[gi].Bench); ok && warm[gi] == 0 {
			warm[gi] = spec.AutoWarmInstructions()
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return warm[order[a]] < warm[order[b]] })
	return order
}
