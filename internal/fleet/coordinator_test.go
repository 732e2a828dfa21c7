package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tlc"
	"tlc/internal/api"
)

// fakeWorker speaks just enough of the tlcd worker API for the coordinator:
// POST /v1/runs (records the execution, returns a stub record), GET
// /v1/runs/{id} (cache lookup), GET /readyz (configurable). It lets these
// tests exercise routing, failover, and health without real simulations.
type fakeWorker struct {
	mu      sync.Mutex
	runs    map[string]int // executions by benchmark
	records map[string]api.RunRecord
	ready   int // /readyz status code
	hs      *httptest.Server
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	w := &fakeWorker{
		runs:    make(map[string]int),
		records: make(map[string]api.RunRecord),
		ready:   http.StatusOK,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(rw http.ResponseWriter, r *http.Request) {
		var req api.RunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		key, err := req.Key()
		if err != nil {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		w.mu.Lock()
		w.runs[req.Benchmark]++
		rec := api.RunRecord{ID: key, Design: req.Design, Benchmark: req.Benchmark, Cycles: 42}
		w.records[key] = rec
		w.mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(rec)
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		rec, ok := w.records[r.PathValue("id")]
		w.mu.Unlock()
		if !ok {
			rw.WriteHeader(http.StatusNotFound)
			return
		}
		json.NewEncoder(rw).Encode(rec)
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		st := w.ready
		w.mu.Unlock()
		rw.WriteHeader(st)
	})
	w.hs = httptest.NewServer(mux)
	t.Cleanup(w.hs.Close)
	return w
}

func (w *fakeWorker) executions() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, c := range w.runs {
		n += c
	}
	return n
}

func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour // tests drive probes explicitly
	}
	c := NewCoordinator(cfg)
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	return c, hs
}

func registerWorker(t *testing.T, coordURL, base string) {
	t.Helper()
	body, _ := json.Marshal(api.RegisterRequest{BaseURL: base})
	resp, err := http.Post(coordURL+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("register %s: %v", base, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", base, resp.StatusCode)
	}
}

func runReq(bench string) api.RunRequest {
	return api.RunRequest{Design: "TLC", Benchmark: bench}
}

func postCoordRun(t *testing.T, coordURL string, req api.RunRequest) (*http.Response, api.RunRecord) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(coordURL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post run: %v", err)
	}
	defer resp.Body.Close()
	var rec api.RunRecord
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatalf("decode record: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, rec
}

// TestCoordinatorRoutesByKey: every run lands on the worker the ring names
// as its key's owner — the property peer caches and coalescing depend on.
func TestCoordinatorRoutesByKey(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t), newFakeWorker(t), newFakeWorker(t)}
	_, hs := newTestCoordinator(t, Config{})
	byBase := make(map[string]*fakeWorker)
	ring := NewRing(0)
	for _, w := range workers {
		registerWorker(t, hs.URL, w.hs.URL)
		byBase[w.hs.URL] = w
		ring.Add(w.hs.URL)
	}

	for _, bench := range tlc.Benchmarks() {
		req := runReq(bench)
		resp, rec := postCoordRun(t, hs.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", bench, resp.StatusCode)
		}
		key, _ := req.Key()
		if rec.ID != key {
			t.Fatalf("%s: record ID %q, want key %q", bench, rec.ID, key)
		}
		owner, _ := ring.Owner(key)
		w := byBase[owner]
		w.mu.Lock()
		n := w.runs[bench]
		w.mu.Unlock()
		if n != 1 {
			t.Fatalf("%s: owner %s executed %d times, want 1", bench, owner, n)
		}
	}
}

// TestCoordinatorFailover: with the key's owner dead, the run fails over to
// the next ring node, the dead worker drops out of routing immediately (no
// probe needed), and the failover is counted.
func TestCoordinatorFailover(t *testing.T) {
	alive := newFakeWorker(t)
	doomed := newFakeWorker(t)
	c, hs := newTestCoordinator(t, Config{})
	registerWorker(t, hs.URL, alive.hs.URL)
	registerWorker(t, hs.URL, doomed.hs.URL)

	ring := NewRing(0)
	ring.Add(alive.hs.URL)
	ring.Add(doomed.hs.URL)
	var req api.RunRequest
	for _, bench := range tlc.Benchmarks() {
		key, _ := runReq(bench).Key()
		if owner, _ := ring.Owner(key); owner == doomed.hs.URL {
			req = runReq(bench)
			break
		}
	}
	if req.Benchmark == "" {
		t.Skip("no benchmark hashed to the doomed worker (vanishingly unlikely)")
	}
	doomed.hs.Close()

	resp, rec := postCoordRun(t, hs.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after owner death: status %d", resp.StatusCode)
	}
	if rec.Benchmark != req.Benchmark {
		t.Fatalf("record benchmark %q, want %q", rec.Benchmark, req.Benchmark)
	}
	if alive.executions() != 1 {
		t.Fatalf("surviving worker executed %d runs, want 1", alive.executions())
	}
	if got := c.nFailovers.Load(); got == 0 {
		t.Fatal("failover not counted")
	}
	for _, ws := range c.snapshot().Workers {
		if ws.BaseURL == doomed.hs.URL && ws.Ready {
			t.Fatal("dead worker still marked ready after failed dispatch")
		}
	}
}

// TestCoordinatorSweepStreams: a fleet sweep returns every point exactly
// once as NDJSON, spread across the ready workers.
func TestCoordinatorSweepStreams(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	_, hs := newTestCoordinator(t, Config{})
	registerWorker(t, hs.URL, w1.hs.URL)
	registerWorker(t, hs.URL, w2.hs.URL)

	var sreq api.SweepRequest
	for _, bench := range tlc.Benchmarks()[:8] {
		sreq.Points = append(sreq.Points, runReq(bench))
	}
	body, _ := json.Marshal(sreq)
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want NDJSON", ct)
	}
	seen := make(map[int]bool)
	dec := json.NewDecoder(resp.Body)
	for {
		var p api.SweepPoint
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode point: %v", err)
		}
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", p.Index, p.Error)
		}
		if seen[p.Index] {
			t.Fatalf("point %d emitted twice", p.Index)
		}
		seen[p.Index] = true
	}
	if len(seen) != len(sreq.Points) {
		t.Fatalf("got %d points, want %d", len(seen), len(sreq.Points))
	}
	if w1.executions()+w2.executions() != len(sreq.Points) {
		t.Fatalf("workers executed %d+%d, want %d total",
			w1.executions(), w2.executions(), len(sreq.Points))
	}
}

// TestCoordinatorNoWorkers: an empty fleet refuses runs with 503 and
// reports unready, rather than hanging or panicking.
func TestCoordinatorNoWorkers(t *testing.T) {
	_, hs := newTestCoordinator(t, Config{})
	resp, _ := postCoordRun(t, hs.URL, runReq("gcc"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run on empty fleet: status %d, want 503", resp.StatusCode)
	}
	r2, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz on empty fleet: status %d, want 503", r2.StatusCode)
	}
}

// TestProbeTracksReadiness: the health loop sees a draining worker's 503
// /readyz as alive-but-unready, a dead worker as dead after DeadAfter
// consecutive failures, and a recovered worker as ready again.
func TestProbeTracksReadiness(t *testing.T) {
	w := newFakeWorker(t)
	dead := newFakeWorker(t)
	c, hs := newTestCoordinator(t, Config{DeadAfter: 2})
	registerWorker(t, hs.URL, w.hs.URL)
	registerWorker(t, hs.URL, dead.hs.URL)
	dead.hs.Close()

	w.mu.Lock()
	w.ready = http.StatusServiceUnavailable // draining
	w.mu.Unlock()

	c.probeAll() // draining observed; dead worker: strike one
	states := map[string]api.WorkerState{}
	for _, ws := range c.snapshot().Workers {
		states[ws.BaseURL] = ws
	}
	if s := states[w.hs.URL]; !s.Alive || s.Ready {
		t.Fatalf("draining worker: alive=%v ready=%v, want alive and not ready", s.Alive, s.Ready)
	}
	if s := states[dead.hs.URL]; !s.Alive {
		t.Fatal("unresponsive worker declared dead before DeadAfter strikes")
	}

	c.probeAll() // strike two: dead
	for _, ws := range c.snapshot().Workers {
		if ws.BaseURL == dead.hs.URL && ws.Alive {
			t.Fatal("worker still alive after DeadAfter failed probes")
		}
	}

	w.mu.Lock()
	w.ready = http.StatusOK
	w.mu.Unlock()
	c.probeAll()
	for _, ws := range c.snapshot().Workers {
		if ws.BaseURL == w.hs.URL && !ws.Ready {
			t.Fatal("recovered worker not restored to routing")
		}
	}
}

// TestRegisterValidation: a registration without a base URL is rejected.
func TestRegisterValidation(t *testing.T) {
	_, hs := newTestCoordinator(t, Config{})
	for _, body := range []string{`{}`, `not json`} {
		resp, err := http.Post(hs.URL+"/v1/workers", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestOversizedBodyIs413: each of the coordinator's JSON POST endpoints
// refuses a body past api.MaxRequestBytes with 413.
func TestOversizedBodyIs413(t *testing.T) {
	_, hs := newTestCoordinator(t, Config{})
	pad := strings.Repeat("x", api.MaxRequestBytes)
	for path, body := range map[string]string{
		"/v1/workers": `{"base_url":"http://` + pad + `"}`,
		"/v1/runs":    `{"design":"TLC","benchmark":"gcc","pad":"` + pad + `"}`,
		"/v1/sweeps":  `{"points":[{"design":"TLC","benchmark":"gcc"}],"pad":"` + pad + `"}`,
	} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestGetRunAcrossFleet: the coordinator's GET /v1/runs/{id} finds a record
// wherever it lives on the ring and 404s cleanly when nowhere.
func TestGetRunAcrossFleet(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	_, hs := newTestCoordinator(t, Config{})
	registerWorker(t, hs.URL, w1.hs.URL)
	registerWorker(t, hs.URL, w2.hs.URL)

	req := runReq("perl")
	key, _ := req.Key()
	// Plant the record on the non-owner: a membership change can leave
	// history anywhere, and the lookup must still find it.
	ring := NewRing(0)
	ring.Add(w1.hs.URL)
	ring.Add(w2.hs.URL)
	owner, _ := ring.Owner(key)
	holder := w1
	if owner == w1.hs.URL {
		holder = w2
	}
	holder.mu.Lock()
	holder.records[key] = api.RunRecord{ID: key, Benchmark: "perl", Cycles: 7}
	holder.mu.Unlock()

	resp, err := http.Get(hs.URL + "/v1/runs/" + key)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	var rec api.RunRecord
	json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rec.Cycles != 7 {
		t.Fatalf("fleet lookup: status %d cycles %d, want 200 and 7", resp.StatusCode, rec.Cycles)
	}

	resp2, err := http.Get(hs.URL + "/v1/runs/" + fmt.Sprintf("%s-missing", key))
	if err != nil {
		t.Fatalf("get missing: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("missing id: status %d, want 404", resp2.StatusCode)
	}
}
