// Package cache provides the storage-array building blocks shared by every
// cache design in the paper: set-associative tag arrays with LRU
// replacement, 6-bit partial-tag stores, and a timed bank model with a
// single contended port.
package cache

import (
	"fmt"

	"tlc/internal/mem"
)

// SetAssoc is a set-associative tag array with true-LRU replacement.
// It tracks block presence only (this is a timing model, not a functional
// memory): Insert returns the victim so callers can model write-backs and
// migrations.
type SetAssoc struct {
	sets  int
	assoc int
	// lines[set*assoc+way] holds the block in that line; valid gates it.
	// Invariant: an invalid line always holds invalidLine, so the hot
	// 2-way probes can decide a hit from the tag compare alone without
	// loading the valid bytes. Snapshot normalizes the sentinel away, so
	// the exported state (and old checkpoints) keep zeros there.
	lines []mem.Block
	valid []uint8
	// lru[set*assoc+way] is the recency rank of the line: 0 = MRU,
	// assoc-1 = LRU. Ranks within a set are always a permutation.
	lru []uint8
}

// invalidLine marks an invalid way in the lines array. No real block takes
// this value (the workload's address layout spans well under 2⁶⁴); the one
// pathological caller — a hand-built trace referencing block ^0 — is routed
// to the valid-checked generic paths instead.
const invalidLine = ^mem.Block(0)

// NewSetAssoc returns an empty array with the given geometry. Sets must be
// a power of two (address arithmetic), assoc must fit the recency encoding.
func NewSetAssoc(sets, assoc int) *SetAssoc {
	if !mem.IsPow2(sets) {
		panic(fmt.Sprintf("cache: sets=%d is not a power of two", sets))
	}
	if assoc <= 0 || assoc > 255 {
		panic(fmt.Sprintf("cache: assoc=%d out of range", assoc))
	}
	n := sets * assoc
	c := &SetAssoc{
		sets:  sets,
		assoc: assoc,
		lines: make([]mem.Block, n),
		valid: make([]uint8, n),
		lru:   make([]uint8, n),
	}
	for i := range c.lines {
		c.lines[i] = invalidLine
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < assoc; w++ {
			c.lru[s*assoc+w] = uint8(w)
		}
	}
	return c
}

// Sets reports the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Assoc reports the associativity.
func (c *SetAssoc) Assoc() int { return c.assoc }

// Blocks reports the total line capacity.
func (c *SetAssoc) Blocks() int { return c.sets * c.assoc }

// Lookup reports whether b is present. It does not update recency; pair it
// with Touch so probe-only paths (partial-tag checks, searches) leave the
// replacement state unchanged.
func (c *SetAssoc) Lookup(b mem.Block) bool {
	_, ok := c.find(b)
	return ok
}

// Touch marks b most-recently-used. It reports whether b was present.
func (c *SetAssoc) Touch(b mem.Block) bool {
	_, ok := c.TouchAt(b)
	return ok
}

// TouchAt is Touch returning the line index (set*assoc+way) of b so callers
// can maintain per-line side state (dirty bits) without a map. The index is
// stable until the line is evicted or removed.
func (c *SetAssoc) TouchAt(b mem.Block) (idx int, ok bool) {
	idx, ok = c.find(b)
	if !ok {
		return 0, false
	}
	c.promote(b.SetIndex(c.sets), idx)
	return idx, true
}

// Access is Lookup+Touch: the normal hit path.
func (c *SetAssoc) Access(b mem.Block) bool { return c.Touch(b) }

// Insert installs b as MRU in its set, evicting the LRU line if the set is
// full. It returns the evicted block and whether an eviction occurred.
// Inserting a block that is already present just refreshes its recency.
func (c *SetAssoc) Insert(b mem.Block) (victim mem.Block, evicted bool) {
	_, victim, evicted = c.InsertAt(b)
	return victim, evicted
}

// InsertAt is Insert returning the line index b now occupies, so callers
// keeping per-line side state can transfer the victim's state (the evicted
// block, if any, held the same index).
func (c *SetAssoc) InsertAt(b mem.Block) (idx int, victim mem.Block, evicted bool) {
	if idx, ok := c.TouchAt(b); ok {
		return idx, 0, false
	}
	set := b.SetIndex(c.sets)
	base := set * c.assoc
	// Prefer an invalid way; otherwise evict the LRU way.
	way := -1
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] == 0 {
			way = w
			break
		}
	}
	if way == -1 {
		for w := 0; w < c.assoc; w++ {
			if c.lru[base+w] == uint8(c.assoc-1) {
				way = w
				break
			}
		}
		victim = c.lines[base+way]
		evicted = true
	}
	c.lines[base+way] = b
	c.valid[base+way] = 1
	c.promote(set, base+way)
	return base + way, victim, evicted
}

// TouchOrInsertAt fuses TouchAt with the InsertAt miss path in a single set
// scan: on a hit it promotes b and reports hit=true; on a miss it installs b
// (reusing an invalid way, else evicting the LRU way) and reports the victim.
// State evolution is identical to TouchAt followed by InsertAt on miss — the
// warm fast path uses it to halve the set searches of the scalar sequence.
func (c *SetAssoc) TouchOrInsertAt(b mem.Block) (idx int, hit bool, victim mem.Block, evicted bool) {
	if c.assoc == 2 && b != invalidLine {
		// The split L1s are 2-way; a direct two-line compare with one-bit
		// recency beats the generic way loop on the warm fast path. Which
		// way holds a block is data-random, so the way select is arranged
		// as conditional moves; the only branch taken per call — hit or
		// miss — is the predictable one. The 2-way body is the entry so
		// the hot case pays one call, not two.
		base := b.SetIndex(c.sets) * 2
		lines := c.lines[base : base+2]
		// y is zero iff the way holds b; the invalidLine invariant makes
		// the tag compare alone authoritative.
		y0 := uint64(lines[0]) ^ uint64(b)
		y1 := uint64(lines[1]) ^ uint64(b)
		ymin := y0
		if y1 < ymin {
			ymin = y1
		}
		if ymin == 0 {
			w := base
			if y1 == 0 {
				w = base + 1
			}
			// Promote w unconditionally: rank d for way 0, 1-d for way 1
			// writes the same permutation the promote loop would leave,
			// without a data-dependent branch.
			d := uint8(w - base)
			lru := c.lru[base : base+2]
			lru[0] = d
			lru[1] = 1 - d
			return w, true, 0, false
		}
		return c.insert2(b, base)
	}
	set := b.SetIndex(c.sets)
	base := set * c.assoc
	// One pass finds b, the first invalid way, and the LRU way together.
	invalid, lruWay := -1, -1
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] == 0 {
			if invalid == -1 {
				invalid = w
			}
			continue
		}
		if c.lines[base+w] == b {
			c.promote(set, base+w)
			return base + w, true, 0, false
		}
		if c.lru[base+w] == uint8(c.assoc-1) {
			lruWay = w
		}
	}
	way := invalid
	if way == -1 {
		way = lruWay
		victim = c.lines[base+way]
		evicted = true
	}
	c.lines[base+way] = b
	c.valid[base+way] = 1
	c.promote(set, base+way)
	return base + way, false, victim, evicted
}

// insert2 is the 2-way miss path: reuse an invalid way (lower way first,
// as the generic scan does), else evict the LRU way. Recency is a single
// bit per pair, so the install writes both ranks directly. State evolution
// is identical to the generic path.
func (c *SetAssoc) insert2(b mem.Block, base int) (idx int, hit bool, victim mem.Block, evicted bool) {
	way := base
	if c.valid[base] != 0 {
		if c.valid[base+1] == 0 {
			way = base + 1
		} else {
			if c.lru[base] != 1 {
				way = base + 1
			}
			victim = c.lines[way]
			evicted = true
		}
	}
	c.lines[way] = b
	c.valid[way] = 1
	if way == base {
		c.lru[base], c.lru[base+1] = 0, 1
	} else {
		c.lru[base], c.lru[base+1] = 1, 0
	}
	return way, false, victim, evicted
}

// Remove invalidates b (a migration extraction or external eviction) and
// reports whether it was present. The freed way becomes LRU.
func (c *SetAssoc) Remove(b mem.Block) bool {
	idx, ok := c.find(b)
	if !ok {
		return false
	}
	set := b.SetIndex(c.sets)
	base := set * c.assoc
	was := c.lru[idx]
	// Demote: every line below the removed one moves up a rank.
	for w := 0; w < c.assoc; w++ {
		if c.lru[base+w] > was {
			c.lru[base+w]--
		}
	}
	c.lru[idx] = uint8(c.assoc - 1)
	c.valid[idx] = 0
	c.lines[idx] = invalidLine
	return true
}

// VictimOf reports which block would be evicted if b were inserted now,
// without modifying anything. ok is false when the insert would not evict
// (hit, or a free way exists).
func (c *SetAssoc) VictimOf(b mem.Block) (victim mem.Block, ok bool) {
	if _, present := c.find(b); present {
		return 0, false
	}
	set := b.SetIndex(c.sets)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] == 0 {
			return 0, false
		}
	}
	for w := 0; w < c.assoc; w++ {
		if c.lru[base+w] == uint8(c.assoc-1) {
			return c.lines[base+w], true
		}
	}
	panic("cache: set has no LRU way") // unreachable: ranks are a permutation
}

// Occupancy reports the number of valid lines.
func (c *SetAssoc) Occupancy() int {
	n := 0
	for _, v := range c.valid {
		if v != 0 {
			n++
		}
	}
	return n
}

// find returns the line index holding b.
func (c *SetAssoc) find(b mem.Block) (int, bool) {
	base := b.SetIndex(c.sets) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] != 0 && c.lines[base+w] == b {
			return base + w, true
		}
	}
	return 0, false
}

// promote makes line idx the MRU of set.
func (c *SetAssoc) promote(set, idx int) {
	was := c.lru[idx]
	if was == 0 {
		// Already MRU: the demotion loop would be a no-op. Re-touches of
		// the hottest line dominate warm streams, so this exit carries
		// most calls.
		return
	}
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.lru[base+w] < was {
			c.lru[base+w]++
		}
	}
	c.lru[idx] = 0
}

// Line is one resident (way, block) pair within a set.
type Line struct {
	Way   int
	Block mem.Block
}

// LinesIn reports the valid lines of a set, in way order. Callers (the
// TLCopt controller) use it to resynchronize partial-tag shadows after a
// fill mutates a set.
func (c *SetAssoc) LinesIn(set int) []Line {
	return c.AppendLinesIn(nil, set)
}

// AppendLinesIn appends the valid lines of a set to dst, in way order, and
// returns the extended slice. Passing a reused buffer (dst[:0] with capacity
// >= assoc) keeps the resynchronization path allocation-free — it runs on
// every TLCopt fill and writeback.
func (c *SetAssoc) AppendLinesIn(dst []Line, set int) []Line {
	if set < 0 || set >= c.sets {
		panic(fmt.Sprintf("cache: set %d out of range", set))
	}
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] != 0 {
			dst = append(dst, Line{Way: w, Block: c.lines[base+w]})
		}
	}
	return dst
}

// checkLRUPermutation verifies the recency ranks of every set form a
// permutation; used by tests.
func (c *SetAssoc) checkLRUPermutation() error {
	for s := 0; s < c.sets; s++ {
		seen := make([]bool, c.assoc)
		for w := 0; w < c.assoc; w++ {
			r := c.lru[s*c.assoc+w]
			if int(r) >= c.assoc || seen[r] {
				return fmt.Errorf("set %d has invalid rank multiset", s)
			}
			seen[r] = true
		}
	}
	return nil
}
