package cache

import "tlc/internal/mem"

// WarmRef is one memory reference of a functional-warm stream: the block
// and whether the access is a store. Functional warming needs nothing else.
// The cpu package re-exports it as MemRef, the element type of
// cpu.Source's NextMems; it lives here so the array can consume whole
// batches without a package cycle.
type WarmRef struct {
	Block mem.Block
	Store bool
}

// WarmSweep drives refs through the array in order, fusing each reference's
// touch/insert with the per-line dirty-bit bookkeeping of a write-back
// cache: a store marks its line dirty, a fill inherits the store bit, and a
// dirty victim must be written back. Every block the next cache level has
// to observe — dirty victims at eviction, then missing loads at fill — is
// appended to spill in reference order, and the extended spill is returned.
//
// dirty holds one byte per line (Blocks()), nonzero meaning dirty. State
// evolution is identical to the per-reference loop over TouchOrInsertAt it
// replaces; batching the sweep keeps the array bases, the dirty slice, and
// the spill append state in registers across the whole batch instead of
// re-establishing them on every call.
func (c *SetAssoc) WarmSweep(refs []WarmRef, dirty []uint8, spill []mem.Block) []mem.Block {
	if c.assoc == 2 && cap(spill)-len(spill) >= 2*len(refs) {
		return c.warmSweep2(refs, dirty, spill)
	}
	for i := range refs {
		var st uint8
		if refs[i].Store {
			st = 1
		}
		idx, hit, victim, evicted := c.TouchOrInsertAt(refs[i].Block)
		if hit {
			dirty[idx] |= st
			continue
		}
		if evicted && dirty[idx] != 0 {
			spill = append(spill, victim)
		}
		dirty[idx] = st
		if st == 0 {
			spill = append(spill, refs[i].Block)
		}
	}
	return spill
}

// warmSweep2 is WarmSweep for 2-way arrays (the split-L1 geometry), with a
// branch-free body: whether a reference hits, which way it lands in, and
// whether anything spills are all data-random, so every one of those
// decisions is arranged as a conditional move or a masked increment rather
// than a branch. A hit degenerates to re-installing the same block over
// itself and a no-op spill store that the length counter never admits; a
// miss picks the first invalid way (the invalidLine sentinel identifies
// them without loading valid bytes), else the LRU way — the same choice the
// generic path makes. The caller guarantees spill headroom of two slots per
// reference, so the spill writes are plain indexed stores.
func (c *SetAssoc) warmSweep2(refs []WarmRef, dirty []uint8, spill []mem.Block) []mem.Block {
	lines, valid, lru := c.lines, c.valid, c.lru
	sets := c.sets
	sp := spill[:cap(spill)]
	sl := len(spill)
	for i := range refs {
		b := refs[i].Block
		var st uint8
		if refs[i].Store {
			st = 1
		}
		if b == invalidLine {
			// The sentinel value cannot use the tag-only probe; route it
			// through the valid-checked generic paths.
			idx, hit, victim, evicted := c.TouchOrInsertAt(b)
			if hit {
				dirty[idx] |= st
				continue
			}
			if evicted && dirty[idx] != 0 {
				sp[sl] = victim
				sl++
			}
			dirty[idx] = st
			if st == 0 {
				sp[sl] = b
				sl++
			}
			continue
		}
		base := b.SetIndex(sets) * 2
		l0 := lines[base]
		l1 := lines[base+1]
		// Every per-reference decision below — hit or miss, which way,
		// what spills — is data-random, so all of it is computed as bit
		// arithmetic on 0/1 flags ((y|-y)>>63 is 1 iff y != 0) rather
		// than trusted to the compiler's branch elimination: the sweep's
		// only branches are the loop and bounds checks.
		y0 := uint64(l0) ^ uint64(b)
		y1 := uint64(l1) ^ uint64(b)
		eq1 := ((y1 | -y1) >> 63) ^ 1          // way 1 holds b
		hitF := eq1 | (((y0 | -y0) >> 63) ^ 1) // some way holds b
		z0 := uint64(l0) ^ ^uint64(0)
		v0 := (z0 | -z0) >> 63 // way 0 valid (not the sentinel)
		z1 := uint64(l1) ^ ^uint64(0)
		v1 := (z1 | -z1) >> 63 // way 1 valid
		// Miss way: the first invalid way (0 before 1, as the generic scan
		// prefers), else the LRU-ranked way.
		mwBit := v0 & ((v1 ^ 1) | (uint64(lru[base]) ^ 1))
		wBit := (hitF & eq1) | ((hitF ^ 1) & mwBit)
		w := base + int(wBit)
		victim := lines[w]
		lines[w] = b
		valid[w] = 1
		lru[base] = uint8(wBit)
		lru[base+1] = 1 - uint8(wBit)
		// The victim's dirty bit is read before the line's new state
		// overwrites it; a hit keeps the old bit, a fill starts clean.
		vd := dirty[w]
		dirty[w] = (vd & (0 - uint8(hitF))) | st
		// Spill slots are written unconditionally; the masked increments
		// decide what the sweep actually emits. Order per reference:
		// dirty-victim writeback, then the missing load's fill.
		nh := hitF ^ 1
		dv := uint64(victim) ^ ^uint64(0)
		ve := (dv | -dv) >> 63 // victim way was valid
		v64 := uint64(vd)
		vdn := (v64 | -v64) >> 63 // victim dirty
		ld := uint64(st) ^ 1      // load fill
		sp[sl] = victim
		sl += int(nh & ve & vdn)
		sp[sl] = b
		sl += int(nh & ld)
	}
	return sp[:sl]
}
