package sim

// Resource models a single-server resource: a bank port, a transmission-
// line link, or a mesh link segment. A reservation occupies the resource
// for a fixed number of cycles; overlapping requests queue.
//
// The resource keeps a calendar of future busy intervals rather than a
// single free-at horizon, so traffic booked in the future (a memory fill
// arriving 300 cycles after its miss resolves) does not block present
// traffic: a present request schedules into the gap. Intervals wholly in
// the past relative to the latest request are pruned; a rare
// earlier-timestamped reservation may therefore see slightly less
// contention than it should, which is the documented approximation.
//
// Resource tracks busy cycles so callers can compute utilization, the
// metric behind Figure 7.
type Resource struct {
	// intervals holds future/active busy spans, sorted by start,
	// non-overlapping.
	intervals []span
	// busy accumulates total occupied cycles (including pruned spans).
	busy Time
	// waits counts reservations that could not start at their request
	// time.
	waits uint64
	// waitCycles accumulates total queuing delay.
	waitCycles Time
	// reservations counts all reservations.
	reservations uint64
	// maxEnd is the latest booked end, for FreeAt.
	maxEnd Time
}

type span struct {
	start, end Time
}

// Reserve books the resource for dur cycles starting no earlier than `at`,
// in the earliest gap that fits. It returns the cycle service starts.
func (r *Resource) Reserve(at, dur Time) Time {
	r.reservations++
	r.busy += dur
	if dur == 0 {
		return at
	}
	// Prune spans that end at or before `at`: they cannot conflict with
	// this or (in the common monotone-time case) any later reservation.
	// The calendar almost always holds one to three spans, so the prune,
	// the gap search and the insert shift elements in place with plain
	// loops instead of calling memmove; the backing array keeps its
	// capacity, so a steady-state calendar stops allocating.
	iv := r.intervals
	i := 0
	for i < len(iv) && iv[i].end <= at {
		i++
	}
	if i > 0 {
		for k := i; k < len(iv); k++ {
			iv[k-i] = iv[k]
		}
		iv = iv[:len(iv)-i]
	}
	// Find the earliest gap of length dur starting at or after `at`.
	start := at
	insert := len(iv)
	for j := range iv {
		if start+dur <= iv[j].start {
			insert = j
			break
		}
		if iv[j].end > start {
			start = iv[j].end
		}
	}
	s := span{start: start, end: start + dur}
	if insert == len(iv) {
		iv = append(iv, s)
	} else {
		iv = append(iv, iv[len(iv)-1])
		for k := len(iv) - 2; k > insert; k-- {
			iv[k] = iv[k-1]
		}
		iv[insert] = s
	}
	r.intervals = iv
	if start+dur > r.maxEnd {
		r.maxEnd = start + dur
	}
	if start > at {
		r.waits++
		r.waitCycles += start - at
	}
	return start
}

// FreeAt reports the end of the latest booked interval.
func (r *Resource) FreeAt() Time { return r.maxEnd }

// BusyCycles reports the total cycles ever reserved.
func (r *Resource) BusyCycles() Time { return r.busy }

// Reservations reports the number of reservations made.
func (r *Resource) Reservations() uint64 { return r.reservations }

// Waits reports how many reservations queued behind earlier ones.
func (r *Resource) Waits() uint64 { return r.waits }

// WaitCycles reports the total cycles reservations spent queued.
func (r *Resource) WaitCycles() Time { return r.waitCycles }

// Utilization reports busy cycles as a fraction of the elapsed window
// [0, now]. It returns 0 for an empty window and clamps at 1 (a
// reservation extending past `now` can push occupancy beyond the window).
func (r *Resource) Utilization(now Time) float64 {
	if now == 0 {
		return 0
	}
	u := float64(r.busy) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset clears all bookkeeping, returning the resource to idle at cycle 0.
func (r *Resource) Reset() { *r = Resource{} }
