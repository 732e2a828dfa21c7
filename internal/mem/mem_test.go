package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockOf(t *testing.T) {
	if BlockOf(0) != 0 {
		t.Fatal("address 0 not in block 0")
	}
	if BlockOf(63) != 0 {
		t.Fatal("address 63 should still be block 0")
	}
	if BlockOf(64) != 1 {
		t.Fatal("address 64 should be block 1")
	}
	if BlockOf(0x1000) != 0x40 {
		t.Fatalf("BlockOf(0x1000)=%#x, want 0x40", BlockOf(0x1000))
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	for _, b := range []Block{0, 1, 7, 1 << 20} {
		if BlockOf(b.Addr()) != b {
			t.Fatalf("round trip failed for block %d", b)
		}
	}
}

func TestSetIndexAndTag(t *testing.T) {
	const sets = 1024
	b := Block(0x12345)
	if got := b.SetIndex(sets); got != 0x345 {
		t.Fatalf("set index %#x, want 0x345", got)
	}
	if got := b.Tag(sets); got != 0x48 {
		t.Fatalf("tag %#x, want 0x48", got)
	}
}

func TestPartialTag(t *testing.T) {
	const sets = 64
	// Tag = block / 64; partial tag is its low 6 bits.
	b := Block(64 * 0x7f) // tag 0x7f -> partial 0x3f
	if got := b.PartialTag(sets); got != 0x3f {
		t.Fatalf("partial tag %#x, want 0x3f", got)
	}
	b2 := Block(64 * 0x40) // tag 0x40 -> partial 0
	if got := b2.PartialTag(sets); got != 0 {
		t.Fatalf("partial tag %#x, want 0", got)
	}
}

// Property: (tag, set) decomposition is invertible.
func TestQuickTagSetRoundTrip(t *testing.T) {
	f := func(raw uint32, setsExp uint8) bool {
		sets := 1 << (setsExp%12 + 1)
		b := Block(raw)
		reassembled := Block(b.Tag(sets)*uint64(sets) + uint64(b.SetIndex(sets)))
		return reassembled == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: two blocks in the same set with equal partial tags may differ,
// but equal full tags in the same set imply the same block.
func TestQuickFullTagUnique(t *testing.T) {
	f := func(a, b uint32) bool {
		const sets = 4096
		ba, bb := Block(a), Block(b)
		if ba.SetIndex(sets) == bb.SetIndex(sets) && ba.Tag(sets) == bb.Tag(sets) {
			return ba == bb
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 1024} {
		if !IsPow2(v) {
			t.Fatalf("%d should be a power of two", v)
		}
	}
	for _, v := range []int{0, -2, 3, 6, 1023} {
		if IsPow2(v) {
			t.Fatalf("%d should not be a power of two", v)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 256: 8, 1 << 20: 20}
	for v, want := range cases {
		if got := Log2(v); got != want {
			t.Fatalf("Log2(%d)=%d, want %d", v, got, want)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Log2(12) did not panic")
		}
	}()
	Log2(12)
}

func TestAccessTypeString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatal("access type names wrong")
	}
	if AccessType(9).String() != "AccessType(9)" {
		t.Fatal("unknown access type should format numerically")
	}
}

func TestFoldHashInvertibleGivenHighBits(t *testing.T) {
	// For a fixed local id (v >> bits), distinct low fields map to
	// distinct hashes: the bank selection stays a bijection per set.
	const bits = 5
	for local := uint64(0); local < 64; local++ {
		seen := map[uint64]bool{}
		for low := uint64(0); low < 1<<bits; low++ {
			h := FoldHash(local<<bits|low, bits)
			if seen[h] {
				t.Fatalf("local %d: duplicate hash %d", local, h)
			}
			seen[h] = true
		}
	}
}

func TestFoldHashDecorrelatesPowerOfTwoStrides(t *testing.T) {
	// The motivating case: a streaming block and its L1-victim writeback
	// 1024 blocks behind must not always share a bank.
	const bits = 5
	same := 0
	for b := uint64(2048); b < 2048+4096; b++ {
		if FoldHash(b, bits) == FoldHash(b-1024, bits) {
			same++
		}
	}
	if same > 4096/4 {
		t.Fatalf("%d/4096 victim pairs share a bank: stride not decorrelated", same)
	}
}

func TestFoldHashUniform(t *testing.T) {
	const bits = 4
	counts := make([]int, 1<<bits)
	for b := uint64(0); b < 1<<16; b++ {
		counts[FoldHash(b, bits)]++
	}
	want := 1 << 16 >> bits
	for v, n := range counts {
		if n < want*9/10 || n > want*11/10 {
			t.Fatalf("bank %d gets %d of %d blocks: not uniform", v, n, want)
		}
	}
}

// foldHashLoop is the data-dependent fold FoldHash replaced, kept as its
// oracle: XOR every bits-wide shift of v until it runs out of set bits.
func foldHashLoop(v uint64, bits int) uint64 {
	var h uint64
	for x := v; x != 0; x >>= uint(bits) {
		h ^= x
	}
	return h & (1<<uint(bits) - 1)
}

func TestFoldHashMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := []uint64{0, ^uint64(0)}
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Uint64(), rng.Uint64()>>uint(rng.Intn(64)))
	}
	for bits := 1; bits <= 8; bits++ {
		for _, v := range vals {
			if got, want := FoldHash(v, bits), foldHashLoop(v, bits); got != want {
				t.Fatalf("FoldHash(%#x, %d) = %#x, loop gives %#x", v, bits, got, want)
			}
		}
	}
}
