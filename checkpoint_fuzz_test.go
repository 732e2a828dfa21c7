package tlc

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/nuca"
	"tlc/internal/snapshot"
	"tlc/internal/workload"
)

// fuzzCkptOptions is the scale of the checkpoints the load tests write
// and restore: a short warm-up, so building real ones is cheap, and the
// 10 k instruction run each restored checkpoint must survive.
func fuzzCkptOptions() Options {
	return Options{WarmInstructions: 20_000, RunInstructions: 10_000, Seed: 1}
}

// fuzzKey is the checkpoint key prepare uses for design d on gcc under
// fuzzCkptOptions.
func fuzzKey(d Design) (snapshot.Key, workload.Spec) {
	spec, _ := workload.SpecByName("gcc")
	opt := fuzzCkptOptions()
	seed, warm := warmPlan(spec, opt)
	return snapshot.Key{Config: configHash(d, spec, opt.cmpConfig(), opt.fidelity()), Bench: spec.Name, Seed: seed, Warm: warm}, spec
}

// storeFile reports the single checkpoint file a store wrote to dir.
func storeFile(tb testing.TB, dir string) string {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gob"))
	if err != nil || len(names) != 1 {
		tb.Fatalf("store wrote %v (%v), want one checkpoint file", names, err)
	}
	return names[0]
}

// ckptHarness writes fuzzed bytes as the disk-tier checkpoint file of a
// design's fuzzKey, in one directory reused for every input.
type ckptHarness struct {
	dir   string
	keys  []snapshot.Key // per entry of Designs()
	names []string       // the file name a store gives each key
	spec  workload.Spec
}

func newCkptHarness(tb testing.TB) *ckptHarness {
	tb.Helper()
	h := &ckptHarness{dir: tb.TempDir()}
	for _, d := range Designs() {
		k, spec := fuzzKey(d)
		dir := tb.TempDir()
		snapshot.NewStore(1, dir).Put(k, snapshot.Checkpoint{L2: nuca.SNUCAState{}})
		h.keys = append(h.keys, k)
		h.names = append(h.names, filepath.Base(storeFile(tb, dir)))
		h.spec = spec
	}
	return h
}

// loadAndRun writes data as the checkpoint file of Designs()[design%6]'s
// key and reads it back through a fresh store. A served checkpoint is
// restored into a fresh one-core machine of that design, which then runs 10 k
// instructions. It reports whether the checkpoint was served and whether
// it restored; any panic fails the caller.
func (h *ckptHarness) loadAndRun(tb testing.TB, design uint8, data []byte) (served, restored bool) {
	i := int(design) % len(h.keys)
	if err := os.WriteFile(filepath.Join(h.dir, h.names[i]), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	ckp, ok := snapshot.NewStore(1, h.dir).Get(h.keys[i])
	if !ok {
		return false, false
	}
	opt := fuzzCkptOptions()
	r := newRig(Designs()[i], h.spec, opt, h.keys[i].Seed)
	if !r.restore(ckp) {
		return true, false
	}
	r.m.Run(opt.RunInstructions)
	return true, true
}

// designIndex reports d's position in Designs().
func designIndex(d Design) uint8 {
	for i, x := range Designs() {
		if x == d {
			return uint8(i)
		}
	}
	panic("design not listed")
}

// TestCheckpointLoadMutations is FuzzCheckpointLoad's body on inputs too
// large for the fuzzing engine to mutate at speed: real checkpoint files of
// SNUCA2, DNUCA and TLCopt (500), which must be served and restored; two
// corrupted DNUCA files (a duplicated L1 recency rank, a cleared shadow
// entry), which must be refused; and 40 random byte mutations of each real
// file, which must never panic.
func TestCheckpointLoadMutations(t *testing.T) {
	h := newCkptHarness(t)
	// fileOf encodes a checkpoint through the store and returns its file.
	fileOf := func(k snapshot.Key, ckp snapshot.Checkpoint) []byte {
		dir := t.TempDir()
		snapshot.NewStore(1, dir).Put(k, ckp)
		b, err := os.ReadFile(storeFile(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rng := rand.New(rand.NewSource(1))
	for _, d := range []Design{config.SNUCA2, config.DNUCA, config.TLCOpt500} {
		opt := fuzzCkptOptions()
		store := NewCheckpointStore(1, "")
		opt.Checkpoints = store
		if _, err := Run(d, "gcc", opt); err != nil {
			t.Fatal(err)
		}
		k, _ := fuzzKey(d)
		ckp, ok := store.Get(k)
		if !ok {
			t.Fatalf("%v: no checkpoint under the fuzz key", d)
		}
		file := fileOf(k, ckp)
		if served, restored := h.loadAndRun(t, designIndex(d), file); !served || !restored {
			t.Fatalf("%v: real checkpoint served=%v restored=%v", d, served, restored)
		}
		for n := 0; n < 40; n++ {
			data := append([]byte(nil), file...)
			for j := 0; j <= rng.Intn(4); j++ {
				data[rng.Intn(len(data))] = byte(rng.Intn(256))
			}
			h.loadAndRun(t, designIndex(d), data)
		}
		if d != config.DNUCA {
			continue
		}
		bad := ckp
		bad.Core.L1.LRU = append([]uint8(nil), ckp.Core.L1.LRU...)
		bad.Core.L1.LRU[1] = bad.Core.L1.LRU[0]
		if served, _ := h.loadAndRun(t, designIndex(d), fileOf(k, bad)); served {
			t.Fatal("checkpoint with a duplicated L1 recency rank was served")
		}
		st := ckp.L2.(nuca.DNUCAState)
		pt := st.PTags[0]
		pt.Valid = append([]bool(nil), pt.Valid...)
		for i, v := range pt.Valid {
			if v {
				pt.Valid[i] = false
				break
			}
		}
		st.PTags = append([]cache.PartialTagsState(nil), st.PTags...)
		st.PTags[0] = pt
		bad = ckp
		bad.L2 = st
		if served, _ := h.loadAndRun(t, designIndex(d), fileOf(k, bad)); served {
			t.Fatal("DNUCA checkpoint with a cleared shadow entry was served")
		}
	}
}

// FuzzCheckpointLoad writes the fuzzed bytes as the disk-tier file of one
// design's checkpoint key and reads it back through a fresh store (see
// ckptHarness.loadAndRun). Get must never panic, and any checkpoint it serves must
// restore into a fresh machine of that design and run 10 k instructions
// without panicking. The committed corpus under testdata/fuzz holds small
// gob envelopes — tiny states of every registered L2 type, consistent and
// not, and a foreign key — so mutation works on decode and validation;
// full-size checkpoints are TestCheckpointLoadMutations' inputs.
func FuzzCheckpointLoad(f *testing.F) {
	h := newCkptHarness(f)
	f.Fuzz(func(t *testing.T, design uint8, data []byte) {
		h.loadAndRun(t, design, data)
	})
}
