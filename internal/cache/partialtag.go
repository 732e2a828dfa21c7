package cache

import (
	"encoding/binary"
	"fmt"

	"tlc/internal/mem"
)

// PartialTags is the 6-bit partial-tag structure DNUCA keeps at its central
// controller (Section 2) and TLCopt keeps inside each bank (Section 4). It
// shadows a set of cache banks: for each (set, bank, way) it records the low
// six tag bits of the resident block, so a lookup can name the candidate
// banks that might hold a block without accessing them.
//
// Partial tags admit false positives (two tags sharing low bits) but never
// false negatives — provided the structure is kept consistent with the bank
// contents, which is exactly the synchronization burden the paper charges
// DNUCA with. Kept exact, the shadow doubles as the host's index: one read
// of a set's packed entries names every bank that may hold a block
// (MatchMask) and every bank with a free way (FreeMask).
type PartialTags struct {
	sets  int
	banks int
	assoc int
	// setBits is log2(sets): a block's tag starts there.
	setBits uint
	// stride is the number of entries per set (banks*assoc): the entries
	// of one set are contiguous, bank-major.
	stride int
	// ent[(set*banks+bank)*assoc+way] is 0 for an invalid way, otherwise
	// ptValid|tag.
	ent []uint8
	// wordBanks maps the eight per-entry flags of one 8-byte word of a
	// set (bit k = entry k) to the bank bits they cover. It is nil unless
	// a set is whole words and a word holds whole banks; the masks then
	// fall back to a per-entry scan.
	wordBanks *[256]uint8
	// banksPerWord is 8/assoc on the word path.
	banksPerWord uint
}

// ptValid marks a valid entry; the low six bits hold the partial tag.
const ptValid = 0x40

// SWAR constants: the low seven and the high bit of every byte, and the
// multiplier that gathers the eight high bits into the top byte.
const (
	lo7    = 0x7f7f7f7f7f7f7f7f
	hi8    = 0x8080808080808080
	bcast8 = 0x0101010101010101
	gather = 0x0002040810204081
)

// NewPartialTags shadows `banks` banks, each with the given per-bank sets
// (a power of two, like the arrays') and associativity. The bank masks carry
// one bit per bank, so at most 64 banks can be shadowed.
func NewPartialTags(sets, banks, assoc int) *PartialTags {
	if !mem.IsPow2(sets) || banks <= 0 || banks > 64 || assoc <= 0 {
		panic(fmt.Sprintf("cache: bad partial tag geometry %d/%d/%d", sets, banks, assoc))
	}
	p := &PartialTags{
		sets:    sets,
		banks:   banks,
		assoc:   assoc,
		setBits: uint(mem.Log2(sets)),
		stride:  banks * assoc,
		ent:     make([]uint8, sets*banks*assoc),
	}
	if p.stride%8 == 0 && 8%assoc == 0 {
		p.banksPerWord = uint(8 / assoc)
		p.wordBanks = new([256]uint8)
		for m := range p.wordBanks {
			for k := 0; k < 8; k++ {
				if m&(1<<k) != 0 {
					p.wordBanks[m] |= 1 << (k / assoc)
				}
			}
		}
	}
	return p
}

// entry reports b's set and the entry a way holding b carries: b's
// SetIndex and ptValid|PartialTag, by shift and mask.
func (p *PartialTags) entry(b mem.Block) (set int, e uint8) {
	return int(uint64(b) & uint64(p.sets-1)), ptValid | uint8(uint64(b)>>p.setBits)&(ptValid-1)
}

// Install records block b residing in bank at the given way.
func (p *PartialTags) Install(b mem.Block, bank, way int) {
	set, e := p.entry(b)
	p.ent[p.index(set, bank, way)] = e
}

// Clear invalidates the entry for (set of b, bank, way).
func (p *PartialTags) Clear(b mem.Block, bank, way int) {
	set, _ := p.entry(b)
	p.ent[p.index(set, bank, way)] = 0
}

// MatchMask reports which banks have at least one way whose partial tag
// matches b, one bit per bank (bit i = bank i).
func (p *PartialTags) MatchMask(b mem.Block) uint64 {
	set, e := p.entry(b)
	return p.mask(p.ent[set*p.stride:(set+1)*p.stride], e)
}

// FreeMask reports which banks have at least one invalid way in the given
// set, one bit per bank. Exact shadowing makes this the banks' own
// free-way state.
func (p *PartialTags) FreeMask(set int) uint64 {
	return p.mask(p.ent[set*p.stride:(set+1)*p.stride], 0)
}

// mask sets bank i's bit when one of its entries in row equals key. On the
// word path each 8-byte word is XORed with the broadcast key, its zero
// bytes are flagged without carries between bytes, and the eight flags are
// gathered into one byte and mapped to banks.
func (p *PartialTags) mask(row []uint8, key uint8) uint64 {
	var m uint64
	if p.wordBanks == nil {
		for i, e := range row {
			if e == key {
				m |= 1 << (i / p.assoc)
			}
		}
		return m
	}
	k := uint64(key) * bcast8
	var sh uint
	for w := 0; w+8 <= len(row); w += 8 {
		x := binary.LittleEndian.Uint64(row[w:]) ^ k
		z := ^(((x & lo7) + lo7) | x) & hi8
		m |= uint64(p.wordBanks[(z*gather)>>56]) << sh
		sh += p.banksPerWord
	}
	return m
}

// MatchCount reports the number of ways in bank matching b's partial tag —
// the multi-match case TLCopt resolves with a second round trip.
func (p *PartialTags) MatchCount(b mem.Block, bank int) int {
	set, key := p.entry(b)
	i := p.index(set, bank, 0)
	n := 0
	for _, e := range p.ent[i : i+p.assoc] {
		if e == key {
			n++
		}
	}
	return n
}

// SyncSet makes bank's shadow of one set exactly match the given resident
// lines, the resynchronization the controller performs when a fill or
// migration mutates a set in ways it does not track one by one.
func (p *PartialTags) SyncSet(set, bank int, lines []Line) {
	base := p.index(set, bank, 0)
	clear(p.ent[base : base+p.assoc])
	for _, ln := range lines {
		if ln.Block.SetIndex(p.sets) != set {
			panic("cache: SyncSet line from a different set")
		}
		_, e := p.entry(ln.Block)
		p.ent[p.index(set, bank, ln.Way)] = e
	}
}

// Entries reports the total capacity, used for the area model: DNUCA's
// partial tag structure covers every line in the cache.
func (p *PartialTags) Entries() int { return p.sets * p.banks * p.assoc }

func (p *PartialTags) index(set, bank, way int) int {
	if bank < 0 || bank >= p.banks || way < 0 || way >= p.assoc {
		panic(fmt.Sprintf("cache: partial tag index bank=%d way=%d out of range", bank, way))
	}
	return (set*p.banks+bank)*p.assoc + way
}
