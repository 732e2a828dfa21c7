package nuca

import (
	"math/rand"
	"reflect"
	"testing"

	"tlc/internal/l2"
	"tlc/internal/mem"
)

// columnStream draws a warm stream over every DNUCA column that drives each
// Warm path: a re-touched hot pool (hits below the nearest row promote),
// fresh blocks (insert at the farthest free row) and a conflict stream of
// 128 tags per column in one set, which overflows the column's ways so
// inserts evict.
func columnStream(d *DNUCA, n int) []mem.Block {
	rng := rand.New(rand.NewSource(3))
	hot := make([]mem.Block, 2048)
	for i := range hot {
		hot[i] = mem.Block(rng.Uint64() >> 24)
	}
	blocks := make([]mem.Block, n)
	for i := range blocks {
		switch rng.Intn(4) {
		case 0, 1:
			blocks[i] = hot[rng.Intn(len(hot))]
		case 2:
			blocks[i] = mem.Block(rng.Uint64() >> 24)
		default:
			local := mem.Block(rng.Intn(128)*d.sets + 7)
			blocks[i] = d.unlocal(local, rng.Intn(d.p.BankSets))
		}
	}
	return blocks
}

// TestWarmBulkMatchesWarm pins both NUCA designs' fused warm kernels to
// their scalar Warm paths: delivering a block sequence through WarmBulk must
// leave the cache's full functional state — way placement, LRU ranks and
// (DNUCA) partial tags — bit-identical to per-block Warm calls, and
// allocate nothing at steady state.
func TestWarmBulkMatchesWarm(t *testing.T) {
	blocks := columnStream(NewDNUCA(testMemLat), 16384)

	// The stream must reach every column and both DNUCA placement paths.
	probe := NewDNUCA(testMemLat)
	cols := map[int]bool{}
	var inserts, promotions int
	for _, b := range blocks {
		col, local := probe.colOf(b), probe.local(b)
		cols[col] = true
		switch row := probe.findRow(col, local); {
		case row < 0:
			inserts++
		case row > 0:
			promotions++
		}
		probe.Warm(b)
	}
	if len(cols) != probe.p.BankSets || inserts == 0 || promotions == 0 {
		t.Fatalf("stream reaches %d of %d columns with %d inserts and %d promotions",
			len(cols), probe.p.BankSets, inserts, promotions)
	}

	builds := []struct {
		name string
		mk   func() l2.Instrumented
	}{
		{"SNUCA2", func() l2.Instrumented { return NewSNUCA(testMemLat) }},
		{"DNUCA", func() l2.Instrumented { return NewDNUCA(testMemLat) }},
	}
	for _, tc := range builds {
		t.Run(tc.name, func(t *testing.T) {
			scalar := tc.mk()
			bulk := tc.mk()
			for _, b := range blocks {
				scalar.Warm(b)
			}
			w := bulk.(l2.Warmer)
			w.WarmBulk(blocks[:1000])
			w.WarmBulk(blocks[1000:])
			want := scalar.(l2.Snapshotter).SnapshotState()
			got := bulk.(l2.Snapshotter).SnapshotState()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: WarmBulk state diverges from per-block Warm", tc.name)
			}
			if allocs := testing.AllocsPerRun(20, func() { w.WarmBulk(blocks) }); allocs != 0 {
				t.Errorf("%s: WarmBulk allocates %.2f per call, want 0", tc.name, allocs)
			}
		})
	}
}
