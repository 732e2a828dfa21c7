// Command perfbench is the simulator's benchmark: it drives the program
// from outside through its public entry points (experiments.Suite.RunAll,
// tlc.Run, and the tlcd HTTP handler on a loopback listener) and reports
// host-time metrics per workload. Every simulated statistic is part of the
// output check, never a metric.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload grid_cold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// makes a separate traced run and reports the per-layer metrics. See
// README.md in this directory for the workloads and the metric table.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// bench is one benchmark invocation: the workload seed, the parallelism,
// the output checker, and the accumulated result counts.
type bench struct {
	workload string
	seed     int64
	par      int
	seconds  float64
	outDir   string
	env      map[string]string
	check    *checker
	// writeExpected replaces the committed digests instead of checking
	// against them.
	writeExpected bool

	attempted int
	failed    int
}

// result counts one result of the workload: a failure when err is set or
// its digest does not match.
func (b *bench) result(label string, o outcome, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.check.fail("%s: %v", label, err)
		return
	}
	if !b.check.check(label, o) {
		b.failed++
	}
}

// unit is one execution of a workload's fixed work: an optional set-up
// phase, then the timed phase whose host time is wall_s.
type unit struct {
	setup time.Duration
	wall  time.Duration
	// latMS holds one latency per result of the timed phase.
	latMS []float64
}

// workloadDef is one workload: how to run one unit of it untraced, how to
// cross-check a sample of its results through an independent path, and
// how to make its traced run. README.md says why each workload exists.
type workloadDef struct {
	name string
	// unitSeconds is the nominal host time of one unit (set-up plus timed
	// phase) on a 2-core machine; --seconds divided by it gives the units
	// per run.
	unitSeconds float64
	run         func(b *bench) (unit, error)
	crossCheck  func(b *bench) error
	traced      func(b *bench) (map[string]float64, []string, error)
}

var workloads = []workloadDef{
	{name: "grid_cold", unitSeconds: 12, run: runGridCold, crossCheck: crossCheckGridCold, traced: tracedGridCold},
	{name: "seed_sweep", unitSeconds: 12, run: runSeedSweep, crossCheck: crossCheckSeedSweep, traced: tracedSeedSweep},
	{name: "served_mix", unitSeconds: 11, run: runServedMix, crossCheck: crossCheckServedMix, traced: tracedServedMix},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: grid_cold, seed_sweep, served_mix, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed; inputs are generated from it")
	seconds := flag.Float64("seconds", 30, "measurement time: it sets how many units of the workload's fixed work a run measures")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: a separate traced run reporting per-layer metrics")
	commit := flag.String("commit", "none", "commit of the measured sources, for the environment stamp")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for digest and span files")
	writeExpected := flag.Bool("write-expected", false, "rewrite the committed digests of the default seed from this run")
	flag.Parse()

	if *name == "all" {
		return runAll(*seed, *seconds, *traceFlag, *commit, *outDir, *writeExpected)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *writeExpected && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: --write-expected needs --seed %d\n", defaultSeed)
		return 2
	}
	// Parallelism is the machine's: simulation workers, and connections
	// for served_mix.
	par := runtime.NumCPU()
	b := &bench{workload: w.name, seed: *seed, par: par, seconds: *seconds, outDir: *outDir, writeExpected: *writeExpected}
	b.env = envStamp(*commit, *seed, par)
	var expected map[string]string
	if *seed == defaultSeed && !*writeExpected {
		var err error
		if expected, err = loadExpected(w.name); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	b.check = newChecker(expected)
	printEnv(b)

	var metrics map[string]float64
	var defs []metricDef
	var err error
	if *traceFlag == 1 {
		var notes []string
		metrics, notes, err = w.traced(b)
		for _, n := range notes {
			fmt.Println("# " + n)
		}
		defs = perLayer
	} else {
		metrics, err = measure(b, w)
		defs = endToEnd
	}
	if err == nil {
		err = w.crossCheck(b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := finishDigests(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range b.check.problems {
		fmt.Println("# MISMATCH " + p)
	}
	report(b, metrics, defs)
	if b.failed > 0 {
		return 1
	}
	return 0
}

// measure runs the workload's units — as many as --seconds holds at the
// workload's nominal unit time, at least one — and reduces them to the
// end-to-end metrics: medians of the per-unit set-up and timed-phase
// times and of the per-unit latency tails, and the latency median over
// every result of every unit. The
// unit count depends only on --seconds, so a parent and a change always
// do the same work and pool the same number of latency samples.
func measure(b *bench, w workloadDef) (map[string]float64, error) {
	n := max(1, int(b.seconds/w.unitSeconds))
	var setups, walls, lat []float64
	var unitLat [][]float64
	for i := 0; i < n; i++ {
		// Each unit starts from a fresh heap, as a new process would: the
		// previous unit's garbage is collected and its pages returned, so
		// no unit inherits another's GC debt or already-faulted memory.
		debug.FreeOSMemory()
		u, err := w.run(b)
		if err != nil {
			return nil, err
		}
		setups = append(setups, u.setup.Seconds())
		walls = append(walls, u.wall.Seconds())
		lat = append(lat, u.latMS...)
		unitLat = append(unitLat, u.latMS)
		fmt.Printf("# unit %d: setup %.4g s, timed %.4f s, %d results\n", i+1, u.setup.Seconds(), u.wall.Seconds(), len(u.latMS))
	}
	tailMS, tails, ok := unitTail(unitLat)
	if !ok {
		return nil, fmt.Errorf("too few latency samples in a unit for a tail with %d beyond it", tailMinBeyond)
	}
	readings := make([]string, len(tails))
	for i, t := range tails {
		readings[i] = fmt.Sprintf("p%d of %d samples (%d beyond it)", t.Pct, t.N, t.Beyond)
	}
	fmt.Printf("# latency_tail_ms is the median of %d unit tails: %s; latency_p50_ms pools %d samples; wall_s and setup_s are medians of %d units\n",
		len(tails), strings.Join(readings, ", "), len(lat), len(walls))
	return map[string]float64{
		"wall_s":          median(walls),
		"setup_s":         median(setups),
		"latency_p50_ms":  median(lat),
		"latency_tail_ms": tailMS,
		"peak_rss_mb":     peakRSSMB(),
	}, nil
}

// metricDef is one reported metric and its unit, in report order.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"}, {"peak_rss_mb", "MB"},
}

// report prints every metric by name with its unit, then the result line.
func report(b *bench, metrics map[string]float64, defs []metricDef) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]val, len(defs))
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = val{Value: v, Unit: d.unit}
		fmt.Printf("%s %s %s %s\n", b.workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	frac := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Printf("%s failed_frac %s ratio (%d of %d)\n", b.workload, strconv.FormatFloat(frac, 'g', -1, 64), b.failed, b.attempted)
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{b.failed == 0, max(b.attempted, 1), b.failed, out})
	if err != nil {
		panic(err) // finite floats, strings and ints always encode
	}
	fmt.Println(string(line))
}

// finishDigests writes what the run saw: the committed expected file when
// asked to, and otherwise the digests of any non-default seed, so that a
// parent and a change can be diffed on it. A run with failures never
// replaces the expected file.
func finishDigests(b *bench) error {
	f := digestFile{Workload: b.workload, Seed: b.seed, Env: b.env, Digests: b.check.seen}
	if b.writeExpected {
		if b.failed > 0 {
			fmt.Printf("# %s not rewritten: %d results failed\n", expectedPath(b.workload), b.failed)
			return nil
		}
		f.Env = nil
		return writeDigestFile(expectedPath(b.workload), f)
	}
	if b.seed == defaultSeed {
		return nil
	}
	path := filepath.Join(b.outDir, "digests", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	fmt.Printf("# digests written to %s\n", path)
	return writeDigestFile(path, f)
}

// envStamp records what produced the numbers, so runs from different
// machines or parallelism are never chained.
func envStamp(commit string, seed int64, par int) map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"seed":       strconv.FormatInt(seed, 10),
		"par":        strconv.Itoa(par),
	}
}

func printEnv(b *bench) {
	keys := []string{"nproc", "gomaxprocs", "go", "cpu", "commit", "seed", "par"}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, b.env[k])
	}
	fmt.Printf("# env workload=%s %s\n", b.workload, strings.Join(parts, " "))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's peak resident set (VmHWM). Each workload
// runs in its own process, so one workload's peak never carries into
// another's.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runAll runs every workload, each in a child process of this binary so
// that peak memory is per workload, and passes their output through.
func runAll(seed int64, seconds float64, traceFlag int, commit, outDir string, writeExpected bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traceFlag),
			"--commit", commit, "--out", outDir, "--write-expected="+strconv.FormatBool(writeExpected))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
