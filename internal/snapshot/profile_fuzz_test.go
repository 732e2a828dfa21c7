package snapshot

import (
	"os"
	"path/filepath"
	"testing"

	"tlc/internal/cpu"
	"tlc/internal/sample"
	"tlc/internal/sim"
)

// The run every loaded profile is checked against and, if it passes,
// steers: 1000 instructions in 4 windows, at most 2 clusters.
const fuzzProfileKey = "fuzz-profile"

var (
	fuzzProfileTotal uint64 = 1000
	fuzzProfileOpt          = sample.Options{PhaseWindows: 4, PhaseClusters: 2}
)

// stubTarget times every instruction at one cycle; it stands in for the
// machine so a loaded profile's execution bookkeeping runs without a
// simulator.
type stubTarget struct{ clock sim.Time }

func (s *stubTarget) Warm(uint64) {}

func (s *stubTarget) Interval(_ int, n uint64) cpu.Result {
	s.clock += sim.Time(n)
	return cpu.Result{Cycles: s.clock, Instructions: n}
}

// loadProfile writes data as the disk-tier file of fuzzProfileKey, reads
// it back through a fresh store, and runs whatever passes Check. It
// reports whether the store served a profile and whether it passed.
func loadProfile(tb testing.TB, dir string, data []byte) (served, passed bool) {
	if err := os.WriteFile(filepath.Join(dir, profileFilename(fuzzProfileKey)), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	p, ok := NewProfileStore(1, dir).Get(fuzzProfileKey)
	if !ok {
		return false, false
	}
	if p.Check(fuzzProfileTotal, fuzzProfileOpt) != nil {
		return true, false
	}
	sample.RunPhased(&stubTarget{}, fuzzProfileTotal, fuzzProfileOpt, p, nil)
	return true, true
}

// fuzzProfileFile encodes a profile the way the store's disk tier does.
func fuzzProfileFile(tb testing.TB, p sample.Profile) []byte {
	tb.Helper()
	dir := tb.TempDir()
	NewProfileStore(1, dir).Put(fuzzProfileKey, p)
	b, err := os.ReadFile(filepath.Join(dir, profileFilename(fuzzProfileKey)))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// fuzzProfile is a profile BuildProfile emits for the fuzz run.
func fuzzProfile(tb testing.TB) sample.Profile {
	tb.Helper()
	feats := [][]float64{
		{0.3, 0.2, 0.01, 0.001, 1.5},
		{0.4, 0.1, 0.05, 0.010, 5.0},
		{0.3, 0.2, 0.01, 0.001, 1.6},
		{0.4, 0.1, 0.05, 0.012, 5.5},
	}
	instr := sample.WindowLengths(fuzzProfileTotal, fuzzProfileOpt.PhaseWindows)
	p, err := sample.BuildProfile(fuzzProfileKey, fuzzProfileTotal, fuzzProfileOpt, feats, instr, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestProfileLoadSeeds pins FuzzProfileLoad's harness on its seed inputs:
// a profile BuildProfile emits is served, passes Check and runs; one with
// empty feature rows (which used to pass Check and panic RunPhased) is
// served but refused; bytes that are not a profile are not served.
func TestProfileLoadSeeds(t *testing.T) {
	dir := t.TempDir()
	good := fuzzProfile(t)
	if served, passed := loadProfile(t, dir, fuzzProfileFile(t, good)); !served || !passed {
		t.Fatalf("built profile served=%v passed=%v", served, passed)
	}
	empty := good
	empty.Features = make([][]float64, good.Windows)
	for i := range empty.Features {
		empty.Features[i] = []float64{}
	}
	if served, passed := loadProfile(t, dir, fuzzProfileFile(t, empty)); !served || passed {
		t.Fatalf("profile with empty feature rows served=%v passed=%v, want served and refused", served, passed)
	}
	if served, _ := loadProfile(t, dir, []byte("not a profile")); served {
		t.Fatal("garbage bytes were served as a profile")
	}
}

// FuzzProfileLoad writes the fuzzed bytes as a disk-tier profile file and
// reads it back through a fresh store; whatever Get serves and Check
// passes is executed by RunPhased over a stub target. None of it may
// panic. The committed corpus under testdata/fuzz holds the disk files of
// a built profile, of one with empty feature rows, and of one with too few
// windows, plus bytes that are not gob.
func FuzzProfileLoad(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		loadProfile(t, dir, data)
	})
}
