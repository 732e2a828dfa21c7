package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/server"
)

// servedBenches are served_mix's benchmarks: two integer, one floating
// point and one commercial workload. The set is fixed so every seed sends
// the same amount of work; the seed picks timed seeds and order.
var servedBenches = []string{"gcc", "mcf", "swim", "oltp"}

// Shapes of served_mix's request kinds.
const (
	phaseWindows  = 40 // the CLIs' -phase defaults
	phaseClusters = 14
	cmpCores      = 2
	cmpRun        = 200_000 // CMP runs stay small: a 4-core default-scale run takes seconds
	cmpWarm       = 2_000_000
	// servedRounds is how many times the timed mix draws its 34 distinct
	// requests (24 full, 6 phase, 4 CMP), each round on new timed seeds.
	servedRounds = 2
	// servedRepeats is how many repeats each round adds: 8 of 42 requests
	// is well clear of half, so the median stays in the executed mode.
	servedRepeats = 8
)

// cmpCombos are the 2-core CMP configurations, each with a cross-core
// sharing pattern.
var cmpCombos = []struct {
	design  tlc.Design
	bench   string
	pattern string
}{
	{tlc.DesignTLC, "oltp", "producer-consumer"},
	{tlc.DesignSNUCA2, "gcc", "migratory"},
}

// servedReq is one POST /v1/runs request of the mix.
type servedReq struct {
	kind  string // full, phase, cmp or repeat
	req   api.RunRequest
	label string
}

func newServedReq(kind string, d tlc.Design, bench string, o api.RunOptions) servedReq {
	r := api.RunRequest{Design: d.String(), Benchmark: bench, Options: o}
	return servedReq{kind: kind, req: r, label: runLabel(d, bench, o.Options())}
}

// servedPlan is served_mix's input. warm holds one request per warm key —
// every single-core (design, benchmark) pair and every CMP configuration
// under the mix's warm seed — which set-up sends so the timed requests
// restore checkpoints. timed is the mix: single-core full runs and
// phase-sampled runs on new timed seeds, 2-core CMP runs, and repeats of
// earlier requests, shuffled by the seed.
func servedPlan(seed int64) (warm, timed []servedReq) {
	rng := splitmix(seed)
	rng.next()
	rng.next() // keep served_mix's draws apart from the other workloads'
	warmSeed := rng.simSeed()
	perRound := len(sweepDesigns)*len(servedBenches)*2 + 2 + len(cmpCombos)*2
	seeds := rng.distinctSeeds(servedRounds*perRound, warmSeed)
	take := func() int64 {
		s := seeds[0]
		seeds = seeds[1:]
		return s
	}
	cmpOpts := func(pattern string, s int64) api.RunOptions {
		return api.RunOptions{Seed: s, WarmSeed: warmSeed, Cores: cmpCores, SharingPattern: pattern,
			RunInstructions: cmpRun, WarmInstructions: cmpWarm}
	}
	for _, d := range sweepDesigns {
		for _, bn := range servedBenches {
			warm = append(warm, newServedReq("full", d, bn, api.RunOptions{Seed: warmSeed, WarmSeed: warmSeed}))
		}
	}
	for _, c := range cmpCombos {
		warm = append(warm, newServedReq("cmp", c.design, c.bench, cmpOpts(c.pattern, warmSeed)))
	}
	for round := 0; round < servedRounds; round++ {
		var mix []servedReq
		for _, d := range sweepDesigns {
			for _, bn := range servedBenches {
				for i := 0; i < 2; i++ {
					mix = append(mix, newServedReq("full", d, bn, api.RunOptions{Seed: take(), WarmSeed: warmSeed}))
				}
			}
		}
		// Two phase profiles, each requested on all three designs: the
		// profile is design-independent, so the store can serve the second
		// and third.
		for _, bn := range []string{"gcc", "swim"} {
			s := take()
			for _, d := range sweepDesigns {
				mix = append(mix, newServedReq("phase", d, bn, api.RunOptions{Seed: s, WarmSeed: warmSeed,
					PhaseWindows: phaseWindows, PhaseClusters: phaseClusters}))
			}
		}
		for _, c := range cmpCombos {
			for i := 0; i < 2; i++ {
				mix = append(mix, newServedReq("cmp", c.design, c.bench, cmpOpts(c.pattern, take())))
			}
		}
		for i := len(mix) - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			mix[i], mix[j] = mix[j], mix[i]
		}
		// Each repeat re-sends a request at least four places earlier, so
		// with a closed loop of a few connections it usually finds the
		// result cached rather than in flight.
		for r := 0; r < servedRepeats; r++ {
			pos := 6 + rng.intn(len(mix)-5)
			src := mix[rng.intn(pos-4)]
			src.kind = "repeat"
			mix = append(mix[:pos], append([]servedReq{src}, mix[pos:]...)...)
		}
		timed = append(timed, mix...)
	}
	return warm, timed
}

// servedEnv is one tlcd handler on a loopback listener and the client
// connections that drive it.
type servedEnv struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startServer builds the service as tlcd does, with one worker per
// parallel slot, and serves it on a loopback port. wrap, when set, wraps
// the handler (the traced run's timing layer).
func startServer(par int, wrap func(http.Handler) http.Handler) (*servedEnv, error) {
	srv := server.New(server.Config{Workers: par})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	e := &servedEnv{srv: srv, hs: &http.Server{Handler: h}, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: par, MaxIdleConnsPerHost: par, DisableCompression: true}}
	return e, nil
}

// stop closes the listener and connections, waits for the serve loop to
// end, and drains the worker pool.
func (e *servedEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	if derr := e.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// requestHeader carries a request's id to the traced handler wrapper.
const requestHeader = "X-Perfbench-Request"

// post sends one run request and decodes its record. A non-200 answer —
// a refused (429, 503) or failed request — is an error.
func post(c *http.Client, url string, r api.RunRequest, id string) (api.RunRecord, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return api.RunRecord{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return api.RunRecord{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestHeader, id)
	resp, err := c.Do(req)
	if err != nil {
		return api.RunRecord{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return api.RunRecord{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return api.RunRecord{}, fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var rec api.RunRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return api.RunRecord{}, fmt.Errorf("decoding run record: %w", err)
	}
	return rec, nil
}

// servedResult is one answered request.
type servedResult struct {
	rec   api.RunRecord
	start time.Time
	lat   time.Duration
	err   error
}

// drive sends reqs closed-loop over par connections: each connection
// sends its next request only when the previous one has answered.
func drive(c *http.Client, url string, reqs []servedReq, par int, idPrefix string) []servedResult {
	out := make([]servedResult, len(reqs))
	parallel(len(reqs), par, func(i int) {
		start := time.Now()
		rec, err := post(c, url, reqs[i].req, idPrefix+strconv.Itoa(i))
		out[i] = servedResult{rec: rec, start: start, lat: time.Since(start), err: err}
	})
	return out
}

// servedUnit is one served_mix unit's raw results.
type servedUnit struct {
	unit
	timed  []servedResult
	metric map[string]float64 // /metricz after the unit
}

// runServed runs one served_mix unit: start the server and send one
// request per warm key (set-up), then the mix (timed). Every answer is
// checked against its digest.
func runServed(b *bench, wrap func(http.Handler) http.Handler, idPrefix string) (servedUnit, error) {
	warm, timed := servedPlan(b.seed)
	start := time.Now()
	e, err := startServer(b.par, wrap)
	if err != nil {
		return servedUnit{}, err
	}
	warmRes := drive(e.client, e.url, warm, b.par, idPrefix+"warm/")
	setup := time.Since(start)
	start = time.Now()
	timedRes := drive(e.client, e.url, timed, b.par, idPrefix+"timed/")
	wall := time.Since(start)
	metric, merr := readMetricz(e.client, e.url)
	if err := e.stop(); err != nil {
		return servedUnit{}, fmt.Errorf("stopping server: %w", err)
	}
	if merr != nil {
		return servedUnit{}, merr
	}
	u := servedUnit{unit: unit{setup: setup, wall: wall}, timed: timedRes, metric: metric}
	for i, r := range warmRes {
		b.result(warm[i].label, recordOutcome(r.rec), r.err)
	}
	for i, r := range timedRes {
		b.result(timed[i].label, recordOutcome(r.rec), r.err)
		u.latMS = append(u.latMS, float64(r.lat)/1e6)
	}
	return u, nil
}

func runServedMix(b *bench) (unit, error) {
	u, err := runServed(b, nil, "")
	return u.unit, err
}

// readMetricz reads the server's counters.
func readMetricz(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap tlc.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metricz: %w", err)
	}
	out := make(map[string]float64, len(snap))
	for _, m := range snap {
		out[m.Name] = m.Value
	}
	return out, nil
}

// crossCheckServedMix runs served configurations in-process, with no
// checkpoint or profile store, and compares them with the served records:
// one request of each kind, chosen by the seed — or every distinct
// request when rewriting the committed digests, which are these local
// results.
func crossCheckServedMix(b *bench) error {
	warm, timed := servedPlan(b.seed)
	byKind := map[string][]servedReq{}
	var all []servedReq
	seen := map[string]bool{}
	for _, r := range append(warm, timed...) {
		if r.kind == "repeat" || seen[r.label] {
			continue
		}
		seen[r.label] = true
		all = append(all, r)
		byKind[r.kind] = append(byKind[r.kind], r)
	}
	pick := all
	if !b.writeExpected {
		rng := splitmix(b.seed ^ 0x5eed)
		pick = nil
		for _, k := range []string{"full", "phase", "cmp"} {
			pick = append(pick, byKind[k][rng.intn(len(byKind[k]))])
		}
	}
	for _, r := range pick {
		d, err := api.ParseDesign(r.req.Design)
		if err != nil {
			return err
		}
		if err := crossCheckLocal(b, d, r.req.Benchmark, r.req.Options.Options(), r.label); err != nil {
			return err
		}
	}
	return nil
}
