package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"tlc"
	"tlc/internal/api"
)

// outcome is what a result digest covers: the simulated cycle count, every
// metric of the run's registry snapshot except the provenance markers, and
// the sampled-mode confidence half-widths (zero for full runs). Host
// timings never enter it.
type outcome struct {
	Cycles        uint64
	Metrics       tlc.MetricsSnapshot
	CyclesCI      float64
	MeanLookupCI  float64
	MissesPer1KCI float64
}

// recordOutcome projects a served run record onto the digested fields.
func recordOutcome(rec api.RunRecord) outcome {
	return outcome{
		Cycles:        rec.Cycles,
		Metrics:       rec.Metrics,
		CyclesCI:      rec.CyclesCI,
		MeanLookupCI:  rec.MeanLookupCI,
		MissesPer1KCI: rec.MissesPer1KCI,
	}
}

// digest renders an outcome as "c<cycles>-<hash>": the cycles stay
// readable so a diff of two digest files shows which runs moved, and the
// hash covers everything else exactly (floats by their shortest
// round-trip form, so a served record decoded from JSON digests like the
// in-process snapshot it was encoded from).
func digest(o outcome) string {
	h := sha256.New()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, m := range o.Metrics {
		if provenance[m.Name] {
			continue
		}
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%d|%d|%d\n",
			m.Name, m.Kind, f(m.Value), m.Count, m.Min, m.Max, m.P50, m.P95, m.P99)
	}
	fmt.Fprintf(h, "ci|%s|%s|%s\n", f(o.CyclesCI), f(o.MeanLookupCI), f(o.MissesPer1KCI))
	return fmt.Sprintf("c%d-%x", o.Cycles, h.Sum(nil)[:12])
}

// provenance names the counters that record how a run was produced, not
// what it computed: a lane pass pre-paid its warm-up, or the profile store
// supplied its phase profile. Which of two concurrent identical requests
// finds a profile cached depends on timing, so digests leave them out;
// every other metric is covered exactly.
var provenance = map[string]bool{
	"sim.lanes.restored":          true,
	"sample.phase.profile_cached": true,
}

// runLabel names one run by its full request: design, benchmark, and the
// options that shape its result. Labels are the keys of digest files.
func runLabel(d tlc.Design, bench string, opt tlc.Options) string {
	b, err := json.Marshal(api.RunRequest{Design: d.String(), Benchmark: bench, Options: api.FromOptions(opt)})
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return string(b)
}

// digestFile is the on-disk form of one workload's digests for one seed.
type digestFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Env      map[string]string `json:"env,omitempty"`
	Digests  map[string]string `json:"digests"`
}

// defaultSeed is the workload seed whose digests are committed.
const defaultSeed = 1

func expectedPath(workload string) string {
	return filepath.Join("perfbench", "expected", workload+".json")
}

// loadExpected reads the committed digests of a workload for the default
// seed.
func loadExpected(workload string) (map[string]string, error) {
	b, err := os.ReadFile(expectedPath(workload))
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(workload), err)
	}
	if f.Seed != defaultSeed || len(f.Digests) == 0 {
		return nil, fmt.Errorf("%s: holds seed %d with %d digests, want seed %d", expectedPath(workload), f.Seed, len(f.Digests), defaultSeed)
	}
	return f.Digests, nil
}

func writeDigestFile(path string, f digestFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker compares the digests a run produces against a reference set. Each
// label's first digest becomes the reference when none is given, so
// repeated units of one run must also agree with each other.
type checker struct {
	expected map[string]string // nil: no committed reference for this seed
	seen     map[string]string
	problems []string
}

func newChecker(expected map[string]string) *checker {
	return &checker{expected: expected, seen: make(map[string]string)}
}

// check records one result and reports whether its digest matches.
func (c *checker) check(label string, o outcome) bool {
	got := digest(o)
	if c.expected != nil {
		want, ok := c.expected[label]
		if !ok {
			c.fail("%s: no expected digest", label)
			return false
		}
		if got != want {
			c.fail("%s: digest %s, expected %s", label, got, want)
			return false
		}
	}
	if prev, ok := c.seen[label]; ok && prev != got {
		c.fail("%s: digest %s differs from an earlier result %s", label, got, prev)
		return false
	}
	c.seen[label] = got
	return true
}

func (c *checker) fail(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}
