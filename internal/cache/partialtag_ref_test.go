package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"tlc/internal/mem"
)

// scalarTags is the reference partial-tag structure: separate tag and valid
// arrays in the same ((set*banks+bank)*assoc+way) layout, answered by
// way-by-way scans. The packed structure must agree with it on every query.
type scalarTags struct {
	sets, banks, assoc int
	tags               []uint8
	valid              []bool
}

func newScalarTags(sets, banks, assoc int) *scalarTags {
	n := sets * banks * assoc
	return &scalarTags{sets: sets, banks: banks, assoc: assoc, tags: make([]uint8, n), valid: make([]bool, n)}
}

func (p *scalarTags) index(set, bank, way int) int { return (set*p.banks+bank)*p.assoc + way }

func (p *scalarTags) Install(b mem.Block, bank, way int) {
	idx := p.index(b.SetIndex(p.sets), bank, way)
	p.tags[idx] = b.PartialTag(p.sets)
	p.valid[idx] = true
}

func (p *scalarTags) Clear(b mem.Block, bank, way int) {
	p.valid[p.index(b.SetIndex(p.sets), bank, way)] = false
}

func (p *scalarTags) SyncSet(set, bank int, lines []Line) {
	for way := 0; way < p.assoc; way++ {
		p.valid[p.index(set, bank, way)] = false
	}
	for _, ln := range lines {
		idx := p.index(set, bank, ln.Way)
		p.tags[idx] = ln.Block.PartialTag(p.sets)
		p.valid[idx] = true
	}
}

// AppendCandidates appends the banks with a way matching b's partial tag,
// in bank order.
func (p *scalarTags) AppendCandidates(dst []int, b mem.Block) []int {
	set := b.SetIndex(p.sets)
	pt := b.PartialTag(p.sets)
	for bank := 0; bank < p.banks; bank++ {
		for way := 0; way < p.assoc; way++ {
			idx := p.index(set, bank, way)
			if p.valid[idx] && p.tags[idx] == pt {
				dst = append(dst, bank)
				break
			}
		}
	}
	return dst
}

// MatchCount counts bank's ways matching b's partial tag.
func (p *scalarTags) MatchCount(b mem.Block, bank int) int {
	set := b.SetIndex(p.sets)
	pt := b.PartialTag(p.sets)
	n := 0
	for way := 0; way < p.assoc; way++ {
		idx := p.index(set, bank, way)
		if p.valid[idx] && p.tags[idx] == pt {
			n++
		}
	}
	return n
}

// freeBanks lists the banks with an invalid way in set, in bank order.
func (p *scalarTags) freeBanks(set int) []int {
	var out []int
	for bank := 0; bank < p.banks; bank++ {
		for way := 0; way < p.assoc; way++ {
			if !p.valid[p.index(set, bank, way)] {
				out = append(out, bank)
				break
			}
		}
	}
	return out
}

// state is the scalar structure's exported form, with invalid entries'
// tags normalized to 0 as Snapshot exports them.
func (p *scalarTags) state() PartialTagsState {
	st := PartialTagsState{Sets: p.sets, Banks: p.banks, Assoc: p.assoc,
		Tags: make([]uint8, len(p.tags)), Valid: append([]bool(nil), p.valid...)}
	for i, v := range p.valid {
		if v {
			st.Tags[i] = p.tags[i]
		}
	}
	return st
}

// bankList expands a bank mask into its banks, lowest first.
func bankList(m uint64) []int {
	var out []int
	for bank := 0; m != 0; bank, m = bank+1, m>>1 {
		if m&1 != 0 {
			out = append(out, bank)
		}
	}
	return out
}

// TestPartialTagMasksMatchScalar drives the packed structure and the scalar
// reference through the same random installs, clears and set resyncs, and
// compares every query after every step: the DNUCA controller's 16x2
// geometry and TLCopt's 1x4 take the word and the per-entry paths, 4x4 and
// 64x1 the word path at other associativities, and 3x3 (nine entries per
// set, not a whole number of words) the per-entry fallback.
func TestPartialTagMasksMatchScalar(t *testing.T) {
	for _, g := range []struct{ sets, banks, assoc int }{
		{512, 16, 2}, {256, 1, 4}, {16, 3, 3}, {32, 4, 4}, {8, 64, 1},
	} {
		p := NewPartialTags(g.sets, g.banks, g.assoc)
		ref := newScalarTags(g.sets, g.banks, g.assoc)
		rng := rand.New(rand.NewSource(int64(g.banks*1000 + g.assoc)))
		// Blocks from a narrow window of sets and tags, so sets fill up,
		// partial tags collide (tags 64 apart) and masks carry many bits.
		block := func() mem.Block {
			tag := uint64(rng.Intn(4)) | uint64(rng.Intn(3))<<6
			return mem.Block(tag*uint64(g.sets) + uint64(rng.Intn(4)))
		}
		for step := 0; step < 4000; step++ {
			b := block()
			bank, way := rng.Intn(g.banks), rng.Intn(g.assoc)
			switch rng.Intn(5) {
			case 0:
				p.Clear(b, bank, way)
				ref.Clear(b, bank, way)
			case 1:
				var lines []Line
				for w := 0; w < g.assoc; w++ {
					if rng.Intn(2) == 0 {
						lines = append(lines, Line{Way: w, Block: mem.Block(uint64(rng.Intn(200))*uint64(g.sets)) + mem.Block(b.SetIndex(g.sets))})
					}
				}
				p.SyncSet(b.SetIndex(g.sets), bank, lines)
				ref.SyncSet(b.SetIndex(g.sets), bank, lines)
			default:
				p.Install(b, bank, way)
				ref.Install(b, bank, way)
			}
			for probe := 0; probe < 4; probe++ {
				q := block()
				if got, want := bankList(p.MatchMask(q)), ref.AppendCandidates(nil, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d step %d: MatchMask(%#x) banks %v, scalar %v", g.banks, g.assoc, step, uint64(q), got, want)
				}
				if got, want := bankList(p.FreeMask(q.SetIndex(g.sets))), ref.freeBanks(q.SetIndex(g.sets)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d step %d: FreeMask(%d) banks %v, scalar %v", g.banks, g.assoc, step, q.SetIndex(g.sets), got, want)
				}
				for bank := 0; bank < g.banks; bank++ {
					if got, want := p.MatchCount(q, bank), ref.MatchCount(q, bank); got != want {
						t.Fatalf("%dx%d step %d: MatchCount(%#x, %d) = %d, scalar %d", g.banks, g.assoc, step, uint64(q), bank, got, want)
					}
				}
			}
		}
		if got, want := p.Snapshot(), ref.state(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%dx%d: snapshot differs from the scalar state", g.banks, g.assoc)
		}
	}
}
