package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/client"
)

// tinyOptions keeps real simulations fast where a test needs one.
func tinyOptions() tlc.Options {
	opt := tlc.DefaultOptions()
	opt.WarmInstructions = 10_000
	opt.RunInstructions = 5_000
	return opt
}

// newTestServer builds a server (stubbed when execute != nil) and its
// httptest front end, torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		if !s.Draining() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
	})
	return s, hs
}

func postRun(t *testing.T, url string, req api.RunRequest, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeRecord(t *testing.T, data []byte) api.RunRecord {
	t.Helper()
	var rec api.RunRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("decoding record: %v\n%s", err, data)
	}
	return rec
}

// counter reads one named counter from the server's registry.
func counter(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	for _, m := range s.Metrics().Snapshot(0) {
		if m.Name == name {
			return m.Count
		}
	}
	t.Fatalf("no counter %s", name)
	return 0
}

// stubRecord is what the stub executor returns for (d, bench).
func stubRecord(d tlc.Design, bench string) api.RunRecord {
	return api.RunRecord{Design: d.String(), Benchmark: bench, Cycles: 42}
}

// TestBackpressure429 saturates a one-worker, depth-one queue and asserts
// the overflow request is rejected with 429 + Retry-After instead of
// queueing unboundedly.
func TestBackpressure429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return stubRecord(d, bench), nil
		},
	})

	// Occupy the worker, then the queue slot, with distinct configs.
	var wg sync.WaitGroup
	occupy := func(bench string) {
		defer wg.Done()
		resp, _ := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: bench}, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupying run %s: status %d", bench, resp.StatusCode)
		}
	}
	wg.Add(1)
	go occupy("gcc")
	<-started // the worker holds gcc
	wg.Add(1)
	go occupy("mcf") // fills the queue slot

	// Wait for the queue to actually hold mcf, then overflow with a third
	// distinct config.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "perl"}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (%s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	var apiErr api.Error
	if err := json.Unmarshal(data, &apiErr); err != nil || apiErr.Error == "" {
		t.Errorf("429 body is not an api.Error: %s", data)
	}
	if got := counter(t, s, "server.runs.rejected"); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(release) // finish gcc and mcf; later executions return immediately
	wg.Wait()
	// The rejected key must not linger as a dead flight: retrying succeeds.
	resp, data = postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "perl"}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after 429: status %d (%s)", resp.StatusCode, data)
	}
}

// TestDeadlineCancelsRun: a request whose deadline expires gets 504 and its
// abandoned run's context is cancelled, so the execution stops cooperatively.
func TestDeadlineCancelsRun(t *testing.T) {
	cancelled := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			<-ctx.Done() // simulate a long run that polls cancellation
			close(cancelled)
			return api.RunRecord{}, ctx.Err()
		},
	})

	resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "?timeout_ms=50")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d, want 504 (%s)", resp.StatusCode, data)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned run's context was never cancelled")
	}
	if got := counter(t, s, "server.runs.deadline_exceeded"); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
	// The cancelled run must not be cached as a result.
	s.mu.Lock()
	n := s.cache.len()
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("cancelled run landed in the result cache (%d entries)", n)
	}
}

// TestCoalescing: concurrent identical requests execute exactly once; the
// extras are marked coalesced. A follow-up request hits the result cache
// with zero further executions.
func TestCoalescing(t *testing.T) {
	var executions atomic.Uint64
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, hs := newTestServer(t, Config{
		Workers: 4,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			once.Do(func() { close(started) })
			<-release
			return stubRecord(d, bench), nil
		},
	})

	req := api.RunRequest{Design: "TLC", Benchmark: "gcc"}
	const callers = 6
	var wg sync.WaitGroup
	var coalesced atomic.Uint64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postRun(t, hs.URL, req, "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d (%s)", resp.StatusCode, data)
				return
			}
			if decodeRecord(t, data).Coalesced {
				coalesced.Add(1)
			}
		}()
		if i == 0 {
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatal("first request never started executing")
			}
		}
	}
	// All joiners are waiting on the one flight; release it.
	for counter(t, s, "server.runs.coalesced") < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("%d executions for %d concurrent identical requests, want 1", got, callers)
	}
	if got := coalesced.Load(); got != callers-1 {
		t.Errorf("%d responses marked coalesced, want %d", got, callers-1)
	}

	// Identical follow-up: served from cache, no new execution.
	resp, data := postRun(t, hs.URL, req, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request: status %d", resp.StatusCode)
	}
	rec := decodeRecord(t, data)
	if !rec.Cached {
		t.Error("follow-up request not marked cached")
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("cache hit triggered execution %d", got)
	}
	if got := counter(t, s, "server.runs.cache_hits"); got != 1 {
		t.Errorf("cache_hits counter = %d, want 1", got)
	}

	// GET by content address finds the same record.
	id, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != id {
		t.Errorf("record ID %q != content address %q", rec.ID, id)
	}
	gresp, err := http.Get(hs.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Errorf("GET by id: status %d", gresp.StatusCode)
	}
	if gresp2, err := http.Get(hs.URL + "/v1/runs/no-such-id"); err == nil {
		gresp2.Body.Close()
		if gresp2.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown id: status %d, want 404", gresp2.StatusCode)
		}
	}
}

// TestServedMatchesInProcess is the byte-identity contract: a run served
// over HTTP reconstructs exactly the tlc.Result an in-process run returns.
func TestServedMatchesInProcess(t *testing.T) {
	opt := tinyOptions()
	_, hs := newTestServer(t, Config{Workers: 2, BaseOptions: opt})

	req := api.RunRequest{Design: "TLC", Benchmark: "perl", Options: api.FromOptions(opt)}
	resp, data := postRun(t, hs.URL, req, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, data)
	}
	served, err := decodeRecord(t, data).ToResult()
	if err != nil {
		t.Fatal(err)
	}
	local, err := tlc.Run(tlc.DesignTLC, "perl", opt)
	if err != nil {
		t.Fatal(err)
	}
	if served != local {
		t.Fatalf("served result diverged from in-process run:\nserved %+v\nlocal  %+v", served, local)
	}
}

// TestRunErrorNotCached: a failing run answers 500 and is re-attempted on
// retry rather than served from the cache.
func TestRunErrorNotCached(t *testing.T) {
	var executions atomic.Uint64
	s, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			return api.RunRecord{}, fmt.Errorf("boom %d", executions.Load())
		},
	})
	for i := 1; i <= 2; i++ {
		resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("%d executions, want 2 (errors are not cached)", got)
	}
	if got := counter(t, s, "server.runs.failed"); got != 2 {
		t.Errorf("failed counter = %d, want 2", got)
	}
}

// TestValidation: malformed bodies and unknown names are 400s.
func TestValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			return stubRecord(d, bench), nil
		},
	})
	for name, body := range map[string]string{
		"not json":          "{nope",
		"unknown design":    `{"design":"NOPE","benchmark":"gcc"}`,
		"unknown benchmark": `{"design":"TLC","benchmark":"nope"}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/runs?timeout_ms=-5", "application/json",
		strings.NewReader(`{"design":"TLC","benchmark":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout: status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyIs413: a body past api.MaxRequestBytes is refused with
// 413 on both POST endpoints.
func TestOversizedBodyIs413(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			return stubRecord(d, bench), nil
		},
	})
	pad := strings.Repeat("x", api.MaxRequestBytes)
	for path, body := range map[string]string{
		"/v1/runs":   `{"design":"TLC","benchmark":"gcc","pad":"` + pad + `"}`,
		"/v1/sweeps": `{"points":[{"design":"TLC","benchmark":"gcc"}],"pad":"` + pad + `"}`,
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

// TestDrain: draining answers 503 on healthz and new runs, completes queued
// work, and Drain returns cleanly.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			once.Do(func() { close(started) })
			<-release
			return stubRecord(d, bench), nil
		},
	})

	// An in-flight run spans the drain: its waiter must still get a result.
	type outcome struct {
		status int
		rec    api.RunRecord
	}
	resc := make(chan outcome, 1)
	go func() {
		resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
		var rec api.RunRecord
		json.Unmarshal(data, &rec)
		resc <- outcome{resp.StatusCode, rec}
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// Liveness and readiness split: a draining server is alive (healthz
	// 200 — its cache still answers peer fills) but not ready (readyz 503 —
	// a coordinator must stop routing new keys to it).
	if resp, err := http.Get(hs.URL + "/healthz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz while draining: status %d, want 200 (liveness, not readiness)", resp.StatusCode)
		}
	}
	if resp, err := http.Get(hs.URL + "/readyz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
		}
	}
	resp, _ := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "mcf"}, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new run while draining: status %d, want 503", resp.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-resc
	if out.status != http.StatusOK || out.rec.Cycles != 42 {
		t.Errorf("run spanning drain: status %d rec %+v", out.status, out.rec)
	}
}

// TestDrainWithBlockedEnqueue: a figure-grid submit blocked on a full queue
// when Drain begins must fail with 503, not panic the process with a send
// on a closed channel (the queue channel is never closed).
func TestDrainWithBlockedEnqueue(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return stubRecord(d, bench), nil
		},
	})

	// Occupy the worker and the single queue slot.
	var wg sync.WaitGroup
	for _, bench := range []string{"gcc", "mcf"} {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			resp, _ := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: bench}, "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("occupying run %s: status %d", bench, resp.StatusCode)
			}
		}(bench)
		if bench == "gcc" {
			<-started // the worker holds gcc before mcf takes the queue slot
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// A wait=true submit (the figure-grid path) now blocks on the send.
	blocked := make(chan *httpError, 1)
	go func() {
		_, herr := s.submitKeyed(context.Background(), tlc.DesignTLC, "perl", tlc.DefaultOptions(), true)
		blocked <- herr
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the blocking enqueue

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	select {
	case herr := <-blocked:
		if herr == nil || herr.status != http.StatusServiceUnavailable {
			t.Fatalf("blocked enqueue during drain: %+v, want 503", herr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked enqueue never resolved during drain")
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
}

// TestNoCoalesceOntoCancelledFlight: after the last waiter of a queued run
// times out (cancelling the flight's context), a new identical request must
// install a fresh flight and succeed — not join the dead one and get a
// spurious "context canceled" 500.
func TestNoCoalesceOntoCancelledFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	_, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			if err := ctx.Err(); err != nil {
				return api.RunRecord{}, err
			}
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return api.RunRecord{}, ctx.Err()
			}
			return stubRecord(d, bench), nil
		},
	})

	// Occupy the worker with gcc; mcf queues behind it and its only waiter
	// times out, cancelling the mcf flight's context while it is queued.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("gcc: status %d", resp.StatusCode)
		}
	}()
	<-started
	resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "mcf"}, "?timeout_ms=50")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued mcf with 50ms deadline: status %d, want 504 (%s)", resp.StatusCode, data)
	}

	// A fresh mcf request while the worker is still busy must not inherit
	// the cancelled flight.
	type outcome struct {
		status int
		data   []byte
	}
	resc := make(chan outcome, 1)
	go func() {
		resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "mcf"}, "")
		resc <- outcome{resp.StatusCode, data}
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	out := <-resc
	if out.status != http.StatusOK {
		t.Fatalf("mcf after its predecessor was cancelled: status %d, want 200 (%s)", out.status, out.data)
	}
	if rec := decodeRecord(t, out.data); rec.Cycles != 42 {
		t.Errorf("mcf record %+v, want the executed stub result", rec)
	}
	wg.Wait()
}

// TestFigureRendersWithoutResimulating: a simulated figure must render from
// the records its grid fill returned (seeding the suite), never by serially
// re-simulating grid points with a background context inside the handler —
// even when the suite holds none of the results (fresh suite, or results
// served straight from the LRU cache).
func TestFigureRendersWithoutResimulating(t *testing.T) {
	var executions atomic.Uint64
	s, hs := newTestServer(t, Config{
		Workers:     4,
		BaseOptions: tinyOptions(),
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			rec := stubRecord(d, bench)
			rec.Result = &tlc.Result{Design: d, Benchmark: bench, Instructions: 1000, Cycles: 42}
			return rec, nil
		},
	})

	grid := uint64(2 * len(tlc.Benchmarks())) // table9: {DNUCA, TLC} x benches
	for fetch := 1; fetch <= 2; fetch++ {
		resp, err := http.Get(hs.URL + "/v1/figures/table9")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch %d: status %d (%s)", fetch, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), "Dynamic Components") {
			t.Fatalf("fetch %d: implausible table9: %.80s", fetch, data)
		}
		if got := executions.Load(); got != grid {
			t.Fatalf("fetch %d: %d executions, want %d (second fetch must be all cache hits)", fetch, got, grid)
		}
		if sim := s.suiteFor(s.cfg.BaseOptions).Metrics().Simulated; sim != 0 {
			t.Fatalf("fetch %d: render re-simulated %d grid points in the handler", fetch, sim)
		}
	}
}

// TestFigureStatic: the physics-only figures render without simulation.
func TestFigureStatic(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(hs.URL + "/v1/figures/table1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table1: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(data), "Transmission Line Dimensions") {
		t.Errorf("table1 content implausible: %.80s", data)
	}
	if resp, err := http.Get(hs.URL + "/v1/figures/nope"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown figure: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestRetryAfterCountsOnlyBusyWorkers pins the idle-pool backpressure
// estimate: with a known mean run wall time and nothing executing, the
// estimate must not charge the client for Workers idle slots (the old
// formula answered a full mean — here 8s — for an empty, idle server).
func TestRetryAfterCountsOnlyBusyWorkers(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	s, hs := newTestServer(t, Config{
		Workers: 4,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			started <- struct{}{}
			select {
			case <-block:
			case <-ctx.Done():
			}
			return stubRecord(d, bench), nil
		},
	})
	s.observeWall(8000) // pretend runs take 8s

	// Idle pool, empty queue: the wait is the floor, not Workers × mean / Workers.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle-pool Retry-After = %ds, want 1s (only busy workers contribute backlog)", got)
	}

	// Two of four workers busy: backlog = 2 × 8000ms / 4 = 4s.
	var wg sync.WaitGroup
	for _, bench := range []string{"gcc", "mcf"} {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: bench}, "")
		}(bench)
	}
	<-started
	<-started
	if got := s.retryAfterSeconds(); got != 4 {
		t.Errorf("half-busy Retry-After = %ds, want 4s (2 busy × 8s / 4 workers)", got)
	}
	close(block)
	wg.Wait()
}

// TestSweepStreamsNDJSON: POST /v1/sweeps answers every grid point exactly
// once as NDJSON, duplicate points dedupe through cache/coalescing, and an
// empty or invalid sweep is a 400.
func TestSweepStreamsNDJSON(t *testing.T) {
	var executions atomic.Uint64
	s, hs := newTestServer(t, Config{
		Workers: 2,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			return stubRecord(d, bench), nil
		},
	})

	sreq := api.SweepRequest{Points: []api.RunRequest{
		{Design: "TLC", Benchmark: "gcc"},
		{Design: "TLC", Benchmark: "mcf"},
		{Design: "DNUCA", Benchmark: "gcc"},
		{Design: "TLC", Benchmark: "gcc"}, // duplicate of point 0
	}}
	body, _ := json.Marshal(sreq)
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("sweep Content-Type %q", ct)
	}
	seen := map[int]api.SweepPoint{}
	dec := json.NewDecoder(resp.Body)
	for {
		var p api.SweepPoint
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if _, dup := seen[p.Index]; dup {
			t.Fatalf("point %d streamed twice", p.Index)
		}
		seen[p.Index] = p
	}
	if len(seen) != len(sreq.Points) {
		t.Fatalf("stream delivered %d points, want %d", len(seen), len(sreq.Points))
	}
	for i, p := range seen {
		if p.Error != "" || p.Record == nil || p.Record.Cycles != 42 {
			t.Errorf("point %d = %+v, want a 42-cycle record", i, p)
		}
	}
	// The duplicate point must not simulate twice.
	if got := executions.Load(); got != 3 {
		t.Errorf("%d executions for 3 distinct points, want 3", got)
	}
	if got := counter(t, s, "server.runs.requested"); got != 4 {
		t.Errorf("requested counter = %d, want 4", got)
	}

	for name, body := range map[string]string{
		"empty":         `{"points":[]}`,
		"invalid point": `{"points":[{"design":"NOPE","benchmark":"gcc"}]}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s sweep: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSweepStreamsBeforeLaterPasses: a sweep's first line is written once
// its own group's lane pass has landed, not after every group's pass. With
// one worker the grid runs gcc's pass, then gcc's points; the second gcc
// point blocks, so mcf's pass cannot have started when the first line
// arrives.
func TestSweepStreamsBeforeLaterPasses(t *testing.T) {
	release := make(chan struct{})
	var executions atomic.Uint64
	s, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			if executions.Add(1) > 1 {
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			return stubRecord(d, bench), nil
		},
	})
	opts := api.RunOptions{WarmInstructions: 10_000, RunInstructions: 5_000}
	var sreq api.SweepRequest
	for _, b := range []string{"gcc", "mcf"} {
		for _, d := range []string{"SNUCA2", "TLC"} {
			sreq.Points = append(sreq.Points, api.RunRequest{Design: d, Benchmark: b, Options: opts})
		}
	}
	body, _ := json.Marshal(sreq)
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var first api.SweepPoint
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.Record == nil || first.Record.Benchmark != "gcc" {
		t.Fatalf("first line %+v, want a gcc record", first)
	}
	if got := counter(t, s, "sim.lanes.groups"); got != 1 {
		t.Fatalf("%d lane passes done at the first line, want 1", got)
	}
	close(release)
	lines := 1
	for {
		var p api.SweepPoint
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines++
	}
	if lines != len(sreq.Points) {
		t.Fatalf("%d lines, want %d", lines, len(sreq.Points))
	}
	if got := counter(t, s, "sim.lanes.groups"); got != 2 {
		t.Errorf("%d lane passes after the sweep, want 2", got)
	}
}

// TestPeerFillServesWithoutExecuting: with a PeerFill hook that has the
// record, an admitted run is answered from the peer — zero local
// executions, the record cached locally for the next hit — and when the
// hook misses, the run falls through to local simulation.
func TestPeerFillServesWithoutExecuting(t *testing.T) {
	var executions, fills atomic.Uint64
	peerRec := api.RunRecord{Design: "TLC", Benchmark: "gcc", Cycles: 77, Cached: true}
	s, hs := newTestServer(t, Config{
		Workers: 1,
		PeerFill: func(ctx context.Context, key string) (api.RunRecord, bool) {
			fills.Add(1)
			if key == mustKey(t, api.RunRequest{Design: "TLC", Benchmark: "gcc"}) {
				return peerRec, true
			}
			return api.RunRecord{}, false
		},
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			return stubRecord(d, bench), nil
		},
	})

	// Peer has gcc: served via peer fill, not executed.
	resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-filled run: status %d (%s)", resp.StatusCode, data)
	}
	rec := decodeRecord(t, data)
	if !rec.PeerFilled || rec.Cached || rec.Cycles != 77 {
		t.Fatalf("peer-filled record = %+v, want PeerFilled=true Cached=false Cycles=77", rec)
	}
	if executions.Load() != 0 {
		t.Fatal("peer fill still executed locally")
	}
	if got := counter(t, s, "server.runs.peer_fills"); got != 1 {
		t.Errorf("peer_fills counter = %d, want 1", got)
	}

	// Second request: the peer-filled record now lives in the local cache.
	resp, data = postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
	if resp.StatusCode != http.StatusOK || !decodeRecord(t, data).Cached {
		t.Fatalf("peer-filled record not cached locally: status %d (%s)", resp.StatusCode, data)
	}
	if fills.Load() != 1 {
		t.Fatalf("local cache hit consulted the peer again (%d fills)", fills.Load())
	}

	// Peer misses mcf: simulate locally.
	resp, data = postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "mcf"}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-miss run: status %d (%s)", resp.StatusCode, data)
	}
	if rec := decodeRecord(t, data); rec.PeerFilled || rec.Cycles != 42 {
		t.Fatalf("peer-miss record = %+v, want locally executed stub", rec)
	}
	if executions.Load() != 1 {
		t.Fatalf("%d local executions after peer miss, want 1", executions.Load())
	}
	if got := counter(t, s, "server.runs.peer_fill_misses"); got != 1 {
		t.Errorf("peer_fill_misses counter = %d, want 1", got)
	}
}

// mustKey resolves a request's content address.
func mustKey(t *testing.T, req api.RunRequest) string {
	t.Helper()
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestMetricz: the server's own counters are served as a sorted snapshot.
func TestMetricz(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			return stubRecord(d, bench), nil
		},
	})
	postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
	resp, err := http.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, m := range snap {
		vals[m.Name] = m.Value
	}
	if vals["server.runs.executed"] != 1 {
		t.Errorf("metricz executed = %v, want 1", vals["server.runs.executed"])
	}
	if vals["server.http.requests"] < 1 {
		t.Error("metricz http.requests not counted")
	}
}

// TestProfileEndpoint: GET /v1/profiles/{key} serves a locally cached
// phase profile and answers 404 for an unknown key — a pure Peek, so a
// fleet peer's profile fetch can never trigger work on this node.
func TestProfileEndpoint(t *testing.T) {
	profiles := tlc.NewPhaseProfileStore(0, "")
	_, hs := newTestServer(t, Config{
		Workers:  1,
		Profiles: profiles,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			return stubRecord(d, bench), nil
		},
	})
	cl := client.New(hs.URL, nil)

	if _, ok, err := cl.GetProfile(context.Background(), "nope"); err != nil || ok {
		t.Fatalf("unknown key: ok=%v err=%v, want a clean 404 miss", ok, err)
	}

	want := tlc.PhaseProfile{
		Version:  1,
		Key:      "k1",
		Total:    200_000,
		Windows:  2,
		Clusters: 1,
		Features: [][]float64{{1, 2}, {3, 4}},
		Instr:    []uint64{100_000, 100_000},
		Assign:   []int{0, 0},
		Reps:     []int{0},
		Weights:  []uint64{200_000},
	}
	profiles.Put("k1", want)
	got, ok, err := cl.GetProfile(context.Background(), "k1")
	if err != nil || !ok {
		t.Fatalf("cached key: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("profile round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}
