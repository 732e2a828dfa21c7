package cache

import (
	"fmt"

	"tlc/internal/mem"
)

// SetAssocState is a deep copy of a SetAssoc's contents: lines, valid bits,
// and LRU ranks, in the array's own (set*assoc+way) layout. Geometry is
// carried so Restore can reject a state captured from a differently shaped
// array. Fields are exported for gob encoding by the on-disk checkpoint
// store; the block type is an integer, so the copy is bit-exact.
type SetAssocState struct {
	Sets  int
	Assoc int
	Lines []mem.Block
	Valid []bool
	LRU   []uint8
}

// Snapshot captures the array's complete replacement state. The returned
// state shares no memory with the array: mutating the array afterwards does
// not change the snapshot, so snapshots can be stored and restored later.
func (c *SetAssoc) Snapshot() SetAssocState {
	st := SetAssocState{
		Sets:  c.sets,
		Assoc: c.assoc,
		Lines: make([]mem.Block, len(c.lines)),
		Valid: make([]bool, len(c.valid)),
		LRU:   make([]uint8, len(c.lru)),
	}
	copy(st.Lines, c.lines)
	for i, v := range c.valid {
		st.Valid[i] = v != 0
		if v == 0 {
			// Normalize the internal invalid-line sentinel away: exported
			// states (and the on-disk checkpoints built from them) keep
			// zeros in invalid ways, as they always have.
			st.Lines[i] = 0
		}
	}
	copy(st.LRU, c.lru)
	return st
}

// Restore overwrites the array's contents with a previously captured state.
// The array keeps no reference to the state's slices, so the same state can
// be restored into many arrays. It returns an error if the state's geometry
// does not match the array's (a checkpoint from a different configuration).
func (c *SetAssoc) Restore(st SetAssocState) error {
	if st.Sets != c.sets || st.Assoc != c.assoc {
		return fmt.Errorf("cache: restoring %dx%d state into %dx%d array",
			st.Sets, st.Assoc, c.sets, c.assoc)
	}
	n := c.sets * c.assoc
	if len(st.Lines) != n || len(st.Valid) != n || len(st.LRU) != n {
		return fmt.Errorf("cache: state arrays sized %d/%d/%d, want %d",
			len(st.Lines), len(st.Valid), len(st.LRU), n)
	}
	copy(c.lines, st.Lines)
	for i, v := range st.Valid {
		if v {
			c.valid[i] = 1
		} else {
			// Re-establish the invalid-line sentinel the exported form
			// (and any checkpoint written before it existed) stores as 0.
			c.valid[i] = 0
			c.lines[i] = invalidLine
		}
	}
	copy(c.lru, st.LRU)
	return nil
}

// PartialTagsState is a deep copy of a PartialTags shadow structure in its
// own ((set*banks+bank)*assoc+way) layout.
type PartialTagsState struct {
	Sets  int
	Banks int
	Assoc int
	Tags  []uint8
	Valid []bool
}

// Snapshot captures the shadow's complete contents; the result shares no
// memory with the structure. Invalid entries export tag 0, as invalid lines
// export block 0 in SetAssocState.
func (p *PartialTags) Snapshot() PartialTagsState {
	st := PartialTagsState{
		Sets:  p.sets,
		Banks: p.banks,
		Assoc: p.assoc,
		Tags:  make([]uint8, len(p.ent)),
		Valid: make([]bool, len(p.ent)),
	}
	tags, valid := st.Tags[:len(p.ent)], st.Valid[:len(p.ent)]
	for i, e := range p.ent {
		tags[i] = e &^ ptValid
		valid[i] = e != 0
	}
	return st
}

// Restore overwrites the shadow with a previously captured state, rejecting
// geometry mismatches.
func (p *PartialTags) Restore(st PartialTagsState) error {
	if st.Sets != p.sets || st.Banks != p.banks || st.Assoc != p.assoc {
		return fmt.Errorf("cache: restoring %d/%d/%d partial-tag state into %d/%d/%d structure",
			st.Sets, st.Banks, st.Assoc, p.sets, p.banks, p.assoc)
	}
	n := p.sets * p.banks * p.assoc
	if len(st.Tags) != n || len(st.Valid) != n {
		return fmt.Errorf("cache: partial-tag state arrays sized %d/%d, want %d",
			len(st.Tags), len(st.Valid), n)
	}
	ent, tags := p.ent[:n], st.Tags[:n]
	for i, v := range st.Valid[:n] {
		var e uint8
		if v {
			e = ptValid | tags[i]&(ptValid-1)
		}
		ent[i] = e
	}
	return nil
}

// Validate checks that a decoded state is one Snapshot could have produced:
// a geometry NewSetAssoc accepts, arrays of that size, recency ranks that
// form a permutation in every set, and every valid line in its own set, at
// most once. Restore trusts these invariants; a state read from disk must
// pass Validate first.
func (st SetAssocState) Validate() error {
	if !mem.IsPow2(st.Sets) || st.Assoc <= 0 || st.Assoc > 255 {
		return fmt.Errorf("cache: state geometry %dx%d", st.Sets, st.Assoc)
	}
	n := len(st.Lines)
	if n/st.Assoc != st.Sets || n%st.Assoc != 0 || len(st.Valid) != n || len(st.LRU) != n {
		return fmt.Errorf("cache: %dx%d state arrays sized %d/%d/%d",
			st.Sets, st.Assoc, len(st.Lines), len(st.Valid), len(st.LRU))
	}
	for s := 0; s < st.Sets; s++ {
		base := s * st.Assoc
		var seen [4]uint64 // one bit per rank
		for w := 0; w < st.Assoc; w++ {
			r := st.LRU[base+w]
			if int(r) >= st.Assoc || seen[r/64]&(1<<(r%64)) != 0 {
				return fmt.Errorf("cache: set %d recency ranks are not a permutation", s)
			}
			seen[r/64] |= 1 << (r % 64)
			if !st.Valid[base+w] {
				continue
			}
			b := st.Lines[base+w]
			if b == invalidLine || b.SetIndex(st.Sets) != s {
				return fmt.Errorf("cache: set %d way %d holds block %#x of another set", s, w, uint64(b))
			}
			for v := 0; v < w; v++ {
				if st.Valid[base+v] && st.Lines[base+v] == b {
					return fmt.Errorf("cache: set %d holds block %#x twice", s, uint64(b))
				}
			}
		}
	}
	return nil
}

// Validate checks that a decoded state is one Snapshot could have produced:
// a geometry NewPartialTags accepts, arrays of that size, and six-bit tags.
// Whether the entries agree with the arrays they shadow is CheckShadows'
// question.
func (st PartialTagsState) Validate() error {
	n := len(st.Tags)
	if !mem.IsPow2(st.Sets) || st.Banks <= 0 || st.Banks > 64 || st.Assoc <= 0 || st.Assoc > n {
		return fmt.Errorf("cache: partial-tag state geometry %d/%d/%d", st.Sets, st.Banks, st.Assoc)
	}
	if n/st.Assoc/st.Banks != st.Sets || n%(st.Assoc*st.Banks) != 0 || len(st.Valid) != n {
		return fmt.Errorf("cache: %d/%d/%d partial-tag state arrays sized %d/%d",
			st.Sets, st.Banks, st.Assoc, len(st.Tags), len(st.Valid))
	}
	for i, v := range st.Valid {
		if v && st.Tags[i] >= ptValid {
			return fmt.Errorf("cache: partial-tag entry %d holds %#x, wider than six bits", i, st.Tags[i])
		}
	}
	return nil
}

// Unused reports whether no entry is valid: the shadow of a design that
// does not keep partial tags.
func (st PartialTagsState) Unused() bool {
	for _, v := range st.Valid {
		if v {
			return false
		}
	}
	return true
}

// CheckShadows reports whether the shadow agrees entry for entry with the
// bank arrays it shadows (banks[i] is bank i): an entry is valid exactly
// when its line is, and then holds that line's partial tag. Lookups trust
// the shadow, so a disagreeing state would return wrong hits. Both states
// must already have passed Validate.
func (st PartialTagsState) CheckShadows(banks []SetAssocState) error {
	if len(banks) != st.Banks {
		return fmt.Errorf("cache: partial tags shadow %d banks, state has %d", st.Banks, len(banks))
	}
	for bank, a := range banks {
		if a.Sets != st.Sets || a.Assoc != st.Assoc {
			return fmt.Errorf("cache: bank %d is %dx%d, its shadow %dx%d", bank, a.Sets, a.Assoc, st.Sets, st.Assoc)
		}
		for set := 0; set < st.Sets; set++ {
			for way := 0; way < st.Assoc; way++ {
				i := (set*st.Banks+bank)*st.Assoc + way
				line := set*st.Assoc + way
				if st.Valid[i] != a.Valid[line] ||
					(st.Valid[i] && st.Tags[i] != a.Lines[line].PartialTag(st.Sets)) {
					return fmt.Errorf("cache: partial tag of bank %d set %d way %d disagrees with its line", bank, set, way)
				}
			}
		}
	}
	return nil
}
