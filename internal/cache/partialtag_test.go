package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tlc/internal/mem"
)

func TestPartialTagNoFalseNegatives(t *testing.T) {
	const sets, banks, assoc = 16, 4, 2
	p := NewPartialTags(sets, banks, assoc)
	b := blk(5, 3, sets)
	p.Install(b, 2, 1)
	if m := p.MatchMask(b); m != 1<<2 {
		t.Fatalf("match mask %#b, want bank 2 only", m)
	}
	if p.MatchCount(b, 2) != 1 {
		t.Fatal("MatchCount missed installed block")
	}
	if p.MatchCount(b, 1) != 0 {
		t.Fatal("MatchCount matched wrong bank")
	}
}

func TestPartialTagFalsePositive(t *testing.T) {
	const sets = 16
	p := NewPartialTags(sets, 2, 1)
	// Two different blocks, same set, tags differing only above bit 6:
	// partial tags collide.
	a := blk(0x01, 3, sets)
	b := blk(0x41, 3, sets)
	if a.PartialTag(sets) != b.PartialTag(sets) {
		t.Fatal("test blocks should share a partial tag")
	}
	p.Install(a, 0, 0)
	if m := p.MatchMask(b); m != 1 {
		t.Fatalf("expected false-positive candidate bank 0, got mask %#b", m)
	}
}

func TestPartialTagClear(t *testing.T) {
	const sets = 16
	p := NewPartialTags(sets, 2, 2)
	b := blk(5, 3, sets)
	p.Install(b, 1, 0)
	p.Clear(b, 1, 0)
	if p.MatchMask(b) != 0 {
		t.Fatal("cleared entry still matches")
	}
}

func TestPartialTagMatchCount(t *testing.T) {
	const sets = 16
	p := NewPartialTags(sets, 1, 4)
	a := blk(0x05, 3, sets)
	b := blk(0x45, 3, sets) // same partial tag as a
	c := blk(0x06, 3, sets) // different partial tag
	p.Install(a, 0, 0)
	p.Install(b, 0, 1)
	p.Install(c, 0, 2)
	if got := p.MatchCount(a, 0); got != 2 {
		t.Fatalf("MatchCount=%d, want 2 (multi-match)", got)
	}
	if got := p.MatchCount(c, 0); got != 1 {
		t.Fatalf("MatchCount=%d, want 1", got)
	}
}

func TestPartialTagEntries(t *testing.T) {
	p := NewPartialTags(512, 16, 2)
	if p.Entries() != 512*16*2 {
		t.Fatalf("entries %d", p.Entries())
	}
}

func TestPartialTagIndexPanics(t *testing.T) {
	p := NewPartialTags(16, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range bank did not panic")
		}
	}()
	p.Install(blk(1, 0, 16), 5, 0)
}

// Property: a partial tag structure kept in sync with a SetAssoc bank never
// produces a false negative — any resident block is always a candidate in
// its bank.
func TestQuickPartialTagConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sets, assoc = 8, 2
		bank := NewSetAssoc(sets, assoc)
		p := NewPartialTags(sets, 1, assoc)
		resident := map[mem.Block]bool{}
		for step := 0; step < 200; step++ {
			b := blk(uint64(rng.Intn(64)), rng.Intn(sets), sets)
			victim, ev := bank.Insert(b)
			if ev {
				delete(resident, victim)
			}
			resident[b] = true
			// Rebuild the shadow entries for this set from the bank, as the
			// DNUCA controller does on migration completion.
			for way := 0; way < assoc; way++ {
				p.Clear(mem.Block(uint64(b.SetIndex(sets))), 0, way)
			}
			for rb := range resident {
				if rb.SetIndex(sets) == b.SetIndex(sets) {
					w, ok := bank.WayOf(rb)
					if !ok {
						return false
					}
					p.Install(rb, 0, w)
				}
			}
			// No false negatives for any resident block.
			for rb := range resident {
				if p.MatchMask(rb)&1 == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBankTiming(t *testing.T) {
	b := NewBank(16, 4, 8)
	if done := b.Reserve(0); done != 8 {
		t.Fatalf("first access done at %d, want 8", done)
	}
	// Second access at cycle 0 queues behind the first.
	if done := b.Reserve(0); done != 16 {
		t.Fatalf("queued access done at %d, want 16", done)
	}
	// Access after the port frees starts immediately.
	if done := b.Reserve(100); done != 108 {
		t.Fatalf("idle access done at %d, want 108", done)
	}
	if b.Accesses != 3 {
		t.Fatalf("access count %d, want 3", b.Accesses)
	}
	if b.PortBusyCycles() != 24 {
		t.Fatalf("busy cycles %d, want 24", b.PortBusyCycles())
	}
	if b.PortWaits() != 1 {
		t.Fatalf("port waits %d, want 1", b.PortWaits())
	}
}

func TestBankSizeAndString(t *testing.T) {
	// 512 KB bank: 2048 sets x 4 ways x 64 B.
	b := NewBank(2048, 4, 8)
	if b.SizeBytes() != 512*1024 {
		t.Fatalf("bank size %d, want 512KB", b.SizeBytes())
	}
	if b.String() != "bank{512KB 4-way 8cyc}" {
		t.Fatalf("bank string %q", b.String())
	}
}

func TestBankZeroLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero access time did not panic")
		}
	}()
	NewBank(16, 2, 0)
}
