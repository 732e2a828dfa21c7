package nuca

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tlc/internal/cache"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/noc"
	"tlc/internal/sim"
)

// refDNUCA drives a DNUCA through the reference controller: every location
// query probes the row arrays one by one, the warm insert scans rows for a
// free way with VictimOf, candidates for the far search come from the
// resident lines, and every fill or migration rebuilds the touched sets'
// shadows with AppendLinesIn + SyncSet. The production controller reads
// its partial-tag shadow instead and must reach the same outcomes, counters
// and state.
type refDNUCA struct {
	*DNUCA
	lines []cache.Line
}

func (d *refDNUCA) findRow(col int, local mem.Block) int {
	for r := 0; r < d.p.Mesh.Rows; r++ {
		if d.banks[col][r].Array.Lookup(local) {
			return r
		}
	}
	return -1
}

func (d *refDNUCA) syncPTag(col, row, set int) {
	d.lines = d.banks[col][row].Array.AppendLinesIn(d.lines[:0], set)
	d.ptags[col].SyncSet(set, row, d.lines)
}

// candidates lists, nearest first, the rows beyond the close banks holding
// a line whose partial tag matches local's.
func (d *refDNUCA) candidates(col int, local mem.Block) []int {
	var out []int
	set, pt := local.SetIndex(d.sets), local.PartialTag(d.sets)
	for r := closeRows; r < d.p.Mesh.Rows; r++ {
		for _, ln := range d.banks[col][r].Array.LinesIn(set) {
			if ln.Block.PartialTag(d.sets) == pt {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func (d *refDNUCA) Access(at sim.Time, req mem.Request) l2.Outcome {
	col := d.colOf(req.Block)
	local := d.local(req.Block)
	if req.Type == mem.Store {
		row := d.findRow(col, local)
		if row < 0 {
			d.fill(at, col, local)
			d.RecordStore(false, 1)
			return l2.Outcome{Hit: false, ResolveAt: at, CompleteAt: at, Predictable: true, BanksAccessed: 1}
		}
		arrive := d.mesh.Route(at, col, row, dataBytes, noc.ToBank)
		d.banks[col][row].Reserve(arrive)
		d.banks[col][row].Array.Touch(local)
		d.RecordStore(true, 1)
		return l2.Outcome{Hit: true, ResolveAt: at, CompleteAt: at, Predictable: true, BanksAccessed: 1}
	}
	respArrive := make([]sim.Time, closeRows)
	arriveLast := d.mesh.Route(at, col, closeRows-1, reqBytes, noc.ToBank)
	arrive := make([]sim.Time, closeRows)
	for r := closeRows - 1; r >= 0; r-- {
		arrive[r] = arriveLast
		for i := r; i < closeRows-1; i++ {
			arrive[r] -= d.p.Mesh.VertReqLat[i]
		}
	}
	for r := 0; r < closeRows; r++ {
		done := d.banks[col][r].Reserve(arrive[r])
		bytes := reqBytes
		if d.banks[col][r].Array.Lookup(local) {
			bytes = dataBytes
		}
		respArrive[r] = d.mesh.Route(done, col, r, bytes, noc.ToController)
	}
	ptagDone := at + sim.Time(ptagLookupBusy) + d.p.PTagLatency
	actualRow := d.findRow(col, local)
	if actualRow >= 0 && actualRow < closeRows {
		resolve := respArrive[actualRow]
		d.banks[col][actualRow].Array.Touch(local)
		predictable := resolve-at == d.nominalClose(col, actualRow)
		d.CloseHits.Inc()
		if actualRow > 0 && !d.Abl.DisablePromotion {
			d.promote(resolve, col, actualRow, local)
		}
		d.RecordLoad(uint64(resolve-at), true, predictable, closeRows)
		return l2.Outcome{Hit: true, ResolveAt: resolve, CompleteAt: resolve, Predictable: predictable, BanksAccessed: closeRows}
	}
	var cands []int
	if d.Abl.DisablePartialTags {
		for r := closeRows; r < d.p.Mesh.Rows; r++ {
			cands = append(cands, r)
		}
	} else {
		cands = d.candidates(col, local)
	}
	if len(cands) == 0 {
		resolve := ptagDone
		for _, t := range respArrive {
			if t > resolve {
				resolve = t
			}
		}
		d.FastMisses.Inc()
		predictable := resolve-at == d.nominalFastMiss(col)
		complete := d.memory.Fetch(resolve, req.Block)
		d.fill(complete, col, local)
		d.RecordLoad(uint64(resolve-at), false, predictable, closeRows)
		return l2.Outcome{Hit: false, ResolveAt: resolve, CompleteAt: complete, Predictable: predictable, BanksAccessed: closeRows}
	}
	d.Searches.Inc()
	banksTouched := closeRows + len(cands)
	var resolve, worst sim.Time
	hit := false
	for _, t := range respArrive {
		if t > worst {
			worst = t
		}
	}
	for _, r := range cands {
		arrive := d.mesh.Route(ptagDone, col, r, reqBytes, noc.ToBank)
		done := d.banks[col][r].Reserve(arrive)
		bytes := reqBytes
		if r == actualRow {
			bytes = dataBytes
		}
		resp := d.mesh.Route(done, col, r, bytes, noc.ToController)
		if r == actualRow {
			hit = true
			resolve = resp
		}
		if resp > worst {
			worst = resp
		}
	}
	if !hit {
		resolve = worst
	}
	if hit {
		d.banks[col][actualRow].Array.Touch(local)
		if !d.Abl.DisablePromotion {
			d.promote(resolve, col, actualRow, local)
		}
		d.RecordLoad(uint64(resolve-at), true, false, banksTouched)
		return l2.Outcome{Hit: true, ResolveAt: resolve, CompleteAt: resolve, BanksAccessed: banksTouched}
	}
	complete := d.memory.Fetch(resolve, req.Block)
	d.fill(complete, col, local)
	d.RecordLoad(uint64(resolve-at), false, false, banksTouched)
	return l2.Outcome{Hit: false, ResolveAt: resolve, CompleteAt: complete, BanksAccessed: banksTouched}
}

func (d *refDNUCA) promote(at sim.Time, col, fromRow int, local mem.Block) {
	toRow := fromRow - 1
	from := d.banks[col][fromRow]
	to := d.banks[col][toRow]
	t := from.Reserve(at)
	t = d.mesh.RouteBetween(t, col, fromRow, toRow, dataBytes)
	t = to.Reserve(t)
	t = d.mesh.RouteBetween(t, col, toRow, fromRow, dataBytes)
	from.Reserve(t)
	d.migrate(col, fromRow, toRow, local)
	d.Promotions.Inc()
}

// migrate is the reference functional swap: Remove + Insert (+ the
// victim's reverse Insert), then a resync of both rows' sets.
func (d *refDNUCA) migrate(col, fromRow, toRow int, local mem.Block) {
	set := local.SetIndex(d.sets)
	from := d.banks[col][fromRow]
	to := d.banks[col][toRow]
	from.Array.Remove(local)
	if victim, evicted := to.Array.Insert(local); evicted {
		from.Array.Insert(victim)
	}
	d.syncPTag(col, fromRow, set)
	d.syncPTag(col, toRow, set)
}

func (d *refDNUCA) fill(at sim.Time, col int, local mem.Block) {
	row := d.farRow()
	bank := d.banks[col][row]
	arrive := d.mesh.Route(at, col, row, dataBytes, noc.ToBank)
	done := bank.Reserve(arrive)
	victim, evicted := bank.Array.Insert(local)
	if evicted {
		d.mesh.Route(done, col, row, dataBytes, noc.ToController)
		d.Writebacks.Inc()
		if d.OnWriteback != nil {
			d.OnWriteback(d.unlocal(victim, col))
		}
	}
	d.syncPTag(col, row, local.SetIndex(d.sets))
	d.Insertions.Inc()
}

func (d *refDNUCA) Warm(b mem.Block) {
	col := d.colOf(b)
	local := d.local(b)
	row := d.findRow(col, local)
	if row < 0 {
		target := d.farRow()
		for r := d.farRow(); r >= 0; r-- {
			if _, wouldEvict := d.banks[col][r].Array.VictimOf(local); !wouldEvict {
				target = r
				break
			}
		}
		d.banks[col][target].Array.Insert(local)
		d.syncPTag(col, target, local.SetIndex(d.sets))
		return
	}
	d.banks[col][row].Array.Touch(local)
	if row > 0 && !d.Abl.DisablePromotion {
		d.migrate(col, row, row/2, local)
	}
}

// sameArray reports whether two array states are identical.
func sameArray(a, b cache.SetAssocState) bool {
	return a.Sets == b.Sets && a.Assoc == b.Assoc && slices.Equal(a.Lines, b.Lines) &&
		slices.Equal(a.Valid, b.Valid) && slices.Equal(a.LRU, b.LRU)
}

// sameColumns reports whether two DNUCAs hold identical bank arrays and
// shadows in the given columns.
func sameColumns(a, b *DNUCA, cols map[int]bool) bool {
	for col := range cols {
		for r := range a.banks[col] {
			if !sameArray(a.banks[col][r].Array.Snapshot(), b.banks[col][r].Array.Snapshot()) {
				return false
			}
		}
		pa, pb := a.ptags[col].Snapshot(), b.ptags[col].Snapshot()
		if !slices.Equal(pa.Tags, pb.Tags) || !slices.Equal(pa.Valid, pb.Valid) {
			return false
		}
	}
	return true
}

// TestDNUCAMatchesReference runs random mixes of Warm, WarmBulk and
// load/store Access through the production controller and the reference
// one, under the paper's design and both ablations, and compares every
// outcome, every registry metric, the written-back blocks and the touched
// columns' arrays and shadows after each step, plus the full SnapshotState
// every 256 steps and at the end. The address pool keeps four columns' four
// sets over-subscribed (evictions and promotions through every row) and
// reuses partial tags (false-positive searches).
func TestDNUCAMatchesReference(t *testing.T) {
	for _, abl := range []DNUCAAblations{{}, {DisablePromotion: true}, {DisablePartialTags: true}} {
		got := NewDNUCA(testMemLat)
		ref := &refDNUCA{DNUCA: NewDNUCA(testMemLat)}
		got.Abl, ref.Abl = abl, abl
		var gotWB, refWB []mem.Block
		got.OnWriteback = func(v mem.Block) { gotWB = append(gotWB, v) }
		ref.OnWriteback = func(v mem.Block) { refWB = append(refWB, v) }

		rng := rand.New(rand.NewSource(11))
		block := func() mem.Block {
			local := mem.Block(rng.Intn(80))<<9 | mem.Block(rng.Intn(4))
			return got.unlocal(local, rng.Intn(4))
		}
		var at sim.Time
		for step := 0; step < 2000; step++ {
			touched := map[int]bool{}
			switch k := rng.Intn(8); {
			case k < 2:
				b := block()
				got.Warm(b)
				ref.Warm(b)
				touched[got.colOf(b)] = true
			case k < 3:
				batch := make([]mem.Block, 1+rng.Intn(8))
				for i := range batch {
					batch[i] = block()
					touched[got.colOf(batch[i])] = true
				}
				got.WarmBulk(batch)
				for _, b := range batch {
					ref.Warm(b)
				}
			default:
				req := mem.Request{Block: block(), Type: mem.Load}
				if k == 7 {
					req.Type = mem.Store
				}
				o1, o2 := got.Access(at, req), ref.Access(at, req)
				if o1 != o2 {
					t.Fatalf("%+v step %d: outcome %+v, reference %+v", abl, step, o1, o2)
				}
				touched[got.colOf(req.Block)] = true
				at += sim.Time(rng.Intn(40))
			}
			if !reflect.DeepEqual(got.Metrics().Snapshot(at), ref.Metrics().Snapshot(at)) {
				t.Fatalf("%+v step %d: metrics diverge", abl, step)
			}
			if !reflect.DeepEqual(gotWB, refWB) {
				t.Fatalf("%+v step %d: writebacks %v, reference %v", abl, step, gotWB, refWB)
			}
			if !sameColumns(got, ref.DNUCA, touched) {
				t.Fatalf("%+v step %d: column state diverges", abl, step)
			}
			if step%256 == 255 && !reflect.DeepEqual(got.SnapshotState(), ref.SnapshotState()) {
				t.Fatalf("%+v step %d: state diverges", abl, step)
			}
		}
		if !reflect.DeepEqual(got.SnapshotState(), ref.SnapshotState()) {
			t.Fatalf("%+v: final state diverges", abl)
		}
		searches, fastMisses, promotions := got.Searches.Value(), got.FastMisses.Value(), got.Promotions.Value()
		// The mix must reach every path it claims to check.
		if searches == 0 || got.Writebacks.Value() == 0 || got.Insertions.Value() == 0 ||
			(!abl.DisablePromotion && promotions == 0) || (!abl.DisablePartialTags && fastMisses == 0) {
			t.Fatalf("%+v: mix reached %d searches, %d fast misses, %d promotions, %d writebacks",
				abl, searches, fastMisses, promotions, got.Writebacks.Value())
		}
	}
}
