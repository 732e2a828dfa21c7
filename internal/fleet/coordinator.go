package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tlc/internal/api"
	"tlc/internal/client"
	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// Config parameterizes a Coordinator. The zero value is usable.
type Config struct {
	// HealthInterval is the period of the readiness probe loop (default 2s).
	HealthInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default 1s).
	ProbeTimeout time.Duration
	// DeadAfter is the consecutive probe failures after which a worker is
	// declared dead — removed from routing entirely, not just marked
	// unready (default 3).
	DeadAfter int
	// Replicas is the virtual-node count per worker on the routing ring
	// (default 128). Every member of the fleet must agree on it.
	Replicas int
	// SweepFanout bounds concurrently dispatched sweep points (default 32).
	// Workers additionally bound themselves: sweep points are dispatched
	// with blocking admission, so a worker's queue, not the coordinator,
	// is the real throttle.
	SweepFanout int
}

// workerState is one registered worker as the coordinator sees it.
type workerState struct {
	base  string
	alive bool
	ready bool
	fails int // consecutive probe failures
}

// Coordinator is the fleet's routing front end. Workers register with it
// (POST /v1/workers, idempotent, doubling as a heartbeat); it probes their
// readiness, consistent-hashes every run key across the ready ones, and
// proxies the tlcd run API so clients — tlcsweep -remote, curl — speak to
// a fleet exactly as they would to one tlcd. It executes nothing itself:
// simulation capacity, result caches, and backpressure all live on the
// workers, which is what lets the fleet scale by registration alone.
type Coordinator struct {
	cfg   Config
	reg   *metrics.Registry
	start time.Time

	mu      sync.Mutex
	workers map[string]*workerState
	ring    *Ring // ready workers only; rebuilt when readiness changes
	clients map[string]*client.Client
	hc      *http.Client

	stop     chan struct{}
	loopDone chan struct{}

	nHTTP        atomic.Uint64
	nRouted      atomic.Uint64
	nFailovers   atomic.Uint64
	nUnroutable  atomic.Uint64
	nSweeps      atomic.Uint64
	nSweepPoints atomic.Uint64
}

// NewCoordinator builds a coordinator and starts its health loop. Call
// Close before discarding it.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.SweepFanout <= 0 {
		cfg.SweepFanout = 32
	}
	c := &Coordinator{
		cfg:      cfg,
		reg:      metrics.New(),
		start:    time.Now(),
		workers:  make(map[string]*workerState),
		ring:     NewRing(cfg.Replicas),
		clients:  make(map[string]*client.Client),
		hc:       &http.Client{},
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	c.registerMetrics()
	go c.healthLoop()
	return c
}

func (c *Coordinator) registerMetrics() {
	c.reg.CounterFunc("fleet.http.requests", c.nHTTP.Load)
	c.reg.CounterFunc("fleet.runs.routed", c.nRouted.Load)
	c.reg.CounterFunc("fleet.runs.failovers", c.nFailovers.Load)
	c.reg.CounterFunc("fleet.runs.unroutable", c.nUnroutable.Load)
	c.reg.CounterFunc("fleet.sweeps.requested", c.nSweeps.Load)
	c.reg.CounterFunc("fleet.sweeps.points", c.nSweepPoints.Load)
	c.reg.Gauge("fleet.workers.registered", func(sim.Time) float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})
	c.reg.Gauge("fleet.workers.ready", func(sim.Time) float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, w := range c.workers {
			if w.ready {
				n++
			}
		}
		return float64(n)
	})
	c.reg.Gauge("fleet.uptime_seconds", func(sim.Time) float64 { return time.Since(c.start).Seconds() })
}

// Metrics exposes the coordinator's registry (tests and /metricz).
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// Close stops the health loop.
func (c *Coordinator) Close() {
	close(c.stop)
	<-c.loopDone
}

// clientFor returns (building on first use) the routing client for one
// worker. Routing clients fail fast: few retries, short backoff, and 503
// excluded from retry — a draining worker answers 503 until it exits, so
// the right move is immediate failover to the next ring node, while 429
// (busy, with a Retry-After estimate) and transient transport errors are
// still retried in place.
func (c *Coordinator) clientFor(base string) *client.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.clients[base]; ok {
		return cl
	}
	cl := client.New(base, c.hc)
	cl.Retries = 2
	cl.Backoff = 50 * time.Millisecond
	cl.RetryStatus = func(status int) bool {
		switch status {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	c.clients[base] = cl
	return cl
}

// register upserts a worker. A (re-)registration marks it alive and ready
// optimistically; the next probe corrects within one HealthInterval.
func (c *Coordinator) register(base string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[base]
	if !ok {
		w = &workerState{base: base}
		c.workers[base] = w
	}
	if !w.alive || !w.ready {
		w.alive, w.ready, w.fails = true, true, 0
		c.rebuildRingLocked()
	}
}

// rebuildRingLocked reconstitutes the routing ring from the ready workers.
// Caller holds mu.
func (c *Coordinator) rebuildRingLocked() {
	r := NewRing(c.cfg.Replicas)
	for _, w := range c.workers {
		if w.ready {
			r.Add(w.base)
		}
	}
	c.ring = r
}

// markUnready pulls a worker out of routing immediately (a failed dispatch
// should not wait for the probe loop to notice); the probe loop restores
// it when /readyz answers 200 again.
func (c *Coordinator) markUnready(base string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[base]; ok && w.ready {
		w.ready = false
		c.rebuildRingLocked()
	}
}

// snapshot lists worker states, sorted by base URL.
func (c *Coordinator) snapshot() api.FleetState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := api.FleetState{Workers: make([]api.WorkerState, 0, len(c.workers))}
	for _, w := range c.workers {
		out.Workers = append(out.Workers, api.WorkerState{BaseURL: w.base, Alive: w.alive, Ready: w.ready})
	}
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].BaseURL < out.Workers[j].BaseURL })
	return out
}

// candidates returns the failover sequence for key: ready workers in ring
// order starting at the owner.
func (c *Coordinator) candidates(key string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Successors(key, 0)
}

// healthLoop probes every registered worker each interval. One /readyz
// round-trip answers both questions the router has: a 200 is ready, any
// other response (a draining worker's 503) is alive but not ready, and
// DeadAfter consecutive non-responses is dead.
func (c *Coordinator) healthLoop() {
	defer close(c.loopDone)
	tick := time.NewTicker(c.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.probeAll()
		}
	}
}

func (c *Coordinator) probeAll() {
	c.mu.Lock()
	bases := make([]string, 0, len(c.workers))
	for b := range c.workers {
		bases = append(bases, b)
	}
	c.mu.Unlock()

	type verdict struct {
		base      string
		responded bool
		ready     bool
	}
	results := make(chan verdict, len(bases))
	for _, b := range bases {
		go func(base string) {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
			if err != nil {
				results <- verdict{base: base}
				return
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				results <- verdict{base: base}
				return
			}
			resp.Body.Close()
			results <- verdict{base: base, responded: true, ready: resp.StatusCode == http.StatusOK}
		}(b)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for range bases {
		v := <-results
		w, ok := c.workers[v.base]
		if !ok {
			continue
		}
		if v.responded {
			if !w.alive || w.ready != v.ready {
				changed = true
			}
			w.alive, w.ready, w.fails = true, v.ready, 0
		} else {
			w.fails++
			if w.fails >= c.cfg.DeadAfter && (w.alive || w.ready) {
				w.alive, w.ready = false, false
				changed = true
			}
		}
	}
	if changed {
		c.rebuildRingLocked()
	}
}

// coordError carries an HTTP status through the routing path.
type coordError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *coordError) Error() string { return e.msg }

// route dispatches one run to its key's owner, failing over along the ring
// when a worker cannot serve it. Failover is for infrastructure failures
// only (transport errors, 502/503/504): a 4xx or 500 is deterministic —
// the identical content-addressed request fails identically everywhere —
// and is passed through. 429 means the owner is healthy but saturated;
// the client has already honored its Retry-After, so the key spills to
// the next ring node rather than waiting longer (the spill node coalesces
// and caches like any other run, and ownership reasserts on the next
// request). Results are deterministic, so a spill changes placement, never
// bytes.
func (c *Coordinator) route(ctx context.Context, req api.RunRequest, block bool) (api.RunRecord, *coordError) {
	key, err := req.Key()
	if err != nil {
		return api.RunRecord{}, &coordError{status: 400, msg: err.Error()}
	}
	cands := c.candidates(key)
	if len(cands) == 0 {
		return api.RunRecord{}, &coordError{status: 503, msg: "fleet: no ready workers"}
	}
	var lastErr error
	for i, node := range cands {
		if i > 0 {
			c.nFailovers.Add(1)
		}
		cl := c.clientFor(node)
		var rec api.RunRecord
		var rerr error
		if block {
			rec, rerr = cl.RunBlocking(ctx, req)
		} else {
			rec, rerr = cl.Run(ctx, req)
		}
		if rerr == nil {
			c.nRouted.Add(1)
			return rec, nil
		}
		if ctx.Err() != nil {
			return api.RunRecord{}, &coordError{status: 504, msg: ctx.Err().Error()}
		}
		var serr *client.StatusError
		if errors.As(rerr, &serr) {
			switch {
			case serr.Status < 500 && serr.Status != http.StatusTooManyRequests:
				return api.RunRecord{}, &coordError{status: serr.Status, msg: serr.Msg}
			case serr.Status == http.StatusInternalServerError:
				return api.RunRecord{}, &coordError{status: 500, msg: serr.Msg}
			case serr.Status == http.StatusTooManyRequests:
				// Saturated but healthy: spill to the next node without
				// pulling the owner out of routing.
			default:
				c.markUnready(node)
			}
		} else {
			c.markUnready(node)
		}
		lastErr = rerr
	}
	c.nUnroutable.Add(1)
	return api.RunRecord{}, &coordError{status: 502, msg: fmt.Sprintf("fleet: no worker could serve the run: %v", lastErr)}
}

// Handler returns the coordinator's HTTP interface — the tlcd run surface
// (runs, sweeps) plus fleet membership:
//
//	POST /v1/workers    register a worker (idempotent heartbeat)
//	GET  /v1/workers    membership with liveness/readiness
//	POST /v1/runs       route one run to its key's owner
//	GET  /v1/runs/{id}  content-address lookup across the fleet
//	POST /v1/sweeps     route a grid, streamed back as NDJSON
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 until a worker is ready)
//	GET  /metricz       the coordinator's own counters
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/runs", c.handleRun)
	mux.HandleFunc("GET /v1/runs/{id}", c.handleGetRun)
	mux.HandleFunc("POST /v1/sweeps", c.handleSweep)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", c.handleReady)
	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.reg.Snapshot(sim.Time(0)))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.nHTTP.Add(1)
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeCoordError(w http.ResponseWriter, e *coordError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(e.retryAfter))
	}
	writeJSON(w, e.status, api.Error{Error: e.msg})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if status, err := api.DecodeRequest(w, r, &req); err != nil {
		writeCoordError(w, &coordError{status: status, msg: "decoding registration: " + err.Error()})
		return
	}
	if req.BaseURL == "" {
		writeCoordError(w, &coordError{status: 400, msg: "registration without base_url"})
		return
	}
	c.register(req.BaseURL)
	writeJSON(w, http.StatusOK, c.snapshot())
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.snapshot())
}

func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, ws := range c.snapshot().Workers {
		if ws.Ready {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready workers"})
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if status, err := api.DecodeRequest(w, r, &req); err != nil {
		writeCoordError(w, &coordError{status: status, msg: "decoding request: " + err.Error()})
		return
	}
	rec, cerr := c.route(r.Context(), req, r.URL.Query().Get("block") == "1")
	if cerr != nil {
		writeCoordError(w, cerr)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleGetRun looks a content address up across the fleet: the owner
// first, then — because a membership change may have left the record at a
// previous owner — the rest of the ring, cheapest-first. Pure cache reads;
// nothing simulates.
func (c *Coordinator) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, node := range c.candidates(id) {
		rec, ok, err := c.clientFor(node).GetRun(r.Context(), id)
		if err == nil && ok {
			writeJSON(w, http.StatusOK, rec)
			return
		}
		if r.Context().Err() != nil {
			writeCoordError(w, &coordError{status: 504, msg: r.Context().Err().Error()})
			return
		}
	}
	writeCoordError(w, &coordError{status: 404, msg: "no completed run with id " + id})
}

// handleSweep is the fleet's POST /v1/sweeps: every grid point is routed
// to its owner (with failover) and streamed back the moment it lands, so
// the sweep completes as long as any worker survives. Dispatch uses
// blocking admission on the workers — a saturated fleet queues instead of
// 429-bouncing its own sweep.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sreq api.SweepRequest
	if status, err := api.DecodeRequest(w, r, &sreq); err != nil {
		writeCoordError(w, &coordError{status: status, msg: "decoding sweep: " + err.Error()})
		return
	}
	if err := sreq.Validate(); err != nil {
		writeCoordError(w, &coordError{status: 400, msg: err.Error()})
		return
	}
	c.nSweeps.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var (
		wmu sync.Mutex
		enc = json.NewEncoder(w)
		wg  sync.WaitGroup
		sem = make(chan struct{}, c.cfg.SweepFanout)
	)
	emit := func(p api.SweepPoint) {
		wmu.Lock()
		defer wmu.Unlock()
		enc.Encode(p)
		if fl != nil {
			fl.Flush()
		}
	}
	for i, p := range sreq.Points {
		wg.Add(1)
		go func(i int, p api.RunRequest) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c.nSweepPoints.Add(1)
			rec, cerr := c.route(r.Context(), p, true)
			if cerr != nil {
				emit(api.SweepPoint{Index: i, Error: cerr.msg})
				return
			}
			emit(api.SweepPoint{Index: i, Record: &rec})
		}(i, p)
	}
	wg.Wait()
}
