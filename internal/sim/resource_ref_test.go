package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refReserve is the reference reservation: the same prune rule, gap search
// and counters as Resource.Reserve, with the calendar compacted and
// shifted by copy.
func refReserve(r *Resource, at, dur Time) Time {
	r.reservations++
	r.busy += dur
	if dur == 0 {
		return at
	}
	i := 0
	for i < len(r.intervals) && r.intervals[i].end <= at {
		i++
	}
	if i > 0 {
		n := copy(r.intervals, r.intervals[i:])
		r.intervals = r.intervals[:n]
	}
	start := at
	insert := len(r.intervals)
	for j, s := range r.intervals {
		if start+dur <= s.start {
			insert = j
			break
		}
		if s.end > start {
			start = s.end
		}
	}
	r.intervals = append(r.intervals, span{})
	copy(r.intervals[insert+1:], r.intervals[insert:])
	r.intervals[insert] = span{start: start, end: start + dur}
	if start+dur > r.maxEnd {
		r.maxEnd = start + dur
	}
	if start > at {
		r.waits++
		r.waitCycles += start - at
	}
	return start
}

// TestReserveMatchesReference drives Reserve and the reference through the
// same long random sequences — mostly monotone request times with
// out-of-order ones mixed in, durations 0 to 20 — and compares the start
// time, every counter, FreeAt and the span list after every call.
func TestReserveMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, ref Resource
		var now Time
		for call := 0; call < 5000; call++ {
			at := now
			switch rng.Intn(6) {
			case 0:
				// Out of order: a request behind the latest one, sometimes
				// behind pruned spans.
				at -= Time(rng.Intn(60))
				if at > now {
					at = 0
				}
			case 1:
				// A booking in the future, leaving a gap to fill.
				at += Time(rng.Intn(80))
			default:
				now += Time(rng.Intn(6))
				at = now
			}
			dur := Time(rng.Intn(21))
			if s1, s2 := got.Reserve(at, dur), refReserve(&ref, at, dur); s1 != s2 {
				t.Fatalf("seed %d call %d: Reserve(%d, %d) started at %d, reference %d", seed, call, at, dur, s1, s2)
			}
			if got.BusyCycles() != ref.BusyCycles() || got.Waits() != ref.Waits() ||
				got.WaitCycles() != ref.WaitCycles() || got.FreeAt() != ref.FreeAt() ||
				got.Reservations() != ref.Reservations() || !slices.Equal(got.intervals, ref.intervals) {
				t.Fatalf("seed %d call %d: state %+v, reference %+v", seed, call, got, ref)
			}
		}
	}
}
