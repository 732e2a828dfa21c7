package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/experiments"
	"tlc/internal/sim"
)

// Handler returns the service's HTTP interface:
//
//	POST /v1/runs            run (or fetch) one configuration (?block=1
//	                         queues behind a full pool instead of 429)
//	GET  /v1/runs/{id}       look up a completed run by content address
//	POST /v1/sweeps          run a grid, streamed back as NDJSON
//	GET  /v1/profiles/{key}  look up a cached phase profile by content key
//	GET  /v1/figures/{fig}   render a paper table/figure (text/plain)
//	GET  /healthz            liveness (200 for the process lifetime)
//	GET  /readyz             readiness (503 while draining)
//	GET  /metricz            the server's own counters, as JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleRun)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /v1/profiles/{key}", s.handleGetProfile)
	mux.HandleFunc("GET /v1/figures/{fig}", s.handleFigure)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metricz", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.nHTTP.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// requestTimeout resolves the effective deadline for one request: the
// timeout_ms query parameter if present, clamped to [1ms, MaxTimeout];
// DefaultTimeout otherwise.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("server: invalid timeout_ms %q", raw)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *httpError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, api.Error{Error: e.msg})
}

// handleRun is POST /v1/runs: decode, bound by the request deadline, and
// submit through cache → coalesce → queue. ?block=1 turns a full queue
// into a ctx-bounded blocking enqueue instead of a 429 — the fleet
// coordinator uses it when dispatching sweep grid points, mirroring how a
// single server's own figure/sweep handlers enqueue internally.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if status, err := api.DecodeRequest(w, r, &req); err != nil {
		writeError(w, &httpError{status: status, msg: "decoding request: " + err.Error()})
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		writeError(w, &httpError{status: 400, msg: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	rec, herr := s.submit(ctx, req, r.URL.Query().Get("block") == "1")
	if herr != nil {
		writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleSweep is POST /v1/sweeps: validate the whole grid up front, then
// stream one NDJSON api.SweepPoint per completed point, in completion
// order. Every point flows through the ordinary submit pipeline (result
// cache → coalescing → worker pool) with blocking admission, so a sweep of
// any size is bounded by the pool and the queue — one request replaces the
// client-side retry loop a large grid otherwise degenerates into. Points
// that fail (deadline, execution error) carry their error on the line;
// the stream itself stays 200 once opened.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sreq api.SweepRequest
	if status, err := api.DecodeRequest(w, r, &sreq); err != nil {
		writeError(w, &httpError{status: status, msg: "decoding sweep: " + err.Error()})
		return
	}
	if err := sreq.Validate(); err != nil {
		writeError(w, &httpError{status: 400, msg: err.Error()})
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		writeError(w, &httpError{status: 400, msg: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	points := make([]experiments.GridPoint, len(sreq.Points))
	for i, p := range sreq.Points {
		d, _ := p.Validate() // Validate passed, so every design resolves
		points[i] = experiments.GridPoint{Design: d, Bench: p.Benchmark, Opt: p.Options.Options()}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var (
		wmu sync.Mutex
		enc = json.NewEncoder(w)
	)
	emit := func(p api.SweepPoint) {
		wmu.Lock()
		defer wmu.Unlock()
		enc.Encode(p)
		if fl != nil {
			fl.Flush()
		}
	}
	// Each point streams as soon as its group's lane pass has landed and
	// its run completes; failures travel on the point's line.
	s.runGrid(ctx, points, func(i int) error {
		rec, herr := s.submit(ctx, sreq.Points[i], true)
		if herr != nil {
			emit(api.SweepPoint{Index: i, Error: herr.msg})
			return nil
		}
		emit(api.SweepPoint{Index: i, Record: &rec})
		return nil
	})
}

// handleGetRun is GET /v1/runs/{id}: a pure result-cache lookup. IDs are
// content addresses (api.RunRequest.Key), so a configuration's ID is known
// before any execution; absent simply means "not run yet (or evicted)".
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec, ok := s.cache.get(id)
	s.mu.Unlock()
	if !ok {
		writeError(w, &httpError{status: 404, msg: "no completed run with id " + id})
		return
	}
	rec.Cached = true
	writeJSON(w, http.StatusOK, rec)
}

// handleGetProfile is GET /v1/profiles/{key}: a pure phase-profile lookup
// (memory or disk — Peek, never the fill hook), so a fleet peer asking
// this node can only ever read what a local phase run already computed;
// profile fetches never cascade. Absent means "not profiled yet (or
// evicted)".
func (s *Server) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	prof, ok := s.cfg.Profiles.Peek(key)
	if !ok {
		writeError(w, &httpError{status: 404, msg: "no cached phase profile with key " + key})
		return
	}
	writeJSON(w, http.StatusOK, prof)
}

// figureGrid lists the (designs × benchmarks) a simulated figure needs.
type figureGrid struct {
	designs []tlc.Design
	render  func(*experiments.Suite) string
}

// figures maps the {fig} path element to its renderer. Static entries
// (physics-only, no simulation) have no grid.
func figures() map[string]figureGrid {
	return map[string]figureGrid{
		// Static: derived from the physical models only.
		"table1": {render: func(*experiments.Suite) string { return experiments.Table1().String() }},
		"table2": {render: func(*experiments.Suite) string { return experiments.Table2().String() }},
		"table7": {render: func(*experiments.Suite) string { return experiments.Table7().String() }},
		"table8": {render: func(*experiments.Suite) string { return experiments.Table8().String() }},
		"fig3":   {render: func(*experiments.Suite) string { return experiments.Figure3().String() }},
		// Simulated: the server fills the grid through its own run pipeline
		// (cache, coalescing, worker pool) before rendering.
		"table6": {
			designs: []tlc.Design{tlc.DesignTLC, tlc.DesignDNUCA},
			render:  func(s *experiments.Suite) string { return s.Table6().String() },
		},
		"table9": {
			designs: []tlc.Design{tlc.DesignDNUCA, tlc.DesignTLC},
			render:  func(s *experiments.Suite) string { return s.Table9().String() },
		},
		"fig5": {
			designs: []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC},
			render:  func(s *experiments.Suite) string { return s.Figure5().String() },
		},
		"fig6": {
			designs: []tlc.Design{tlc.DesignDNUCA, tlc.DesignTLC},
			render:  func(s *experiments.Suite) string { return s.Figure6().String() },
		},
		"fig7": {
			designs: tlc.TLCFamily(),
			render:  func(s *experiments.Suite) string { return s.Figure7().String() },
		},
		"fig8": {
			designs: append([]tlc.Design{tlc.DesignSNUCA2}, tlc.TLCFamily()...),
			render:  func(s *experiments.Suite) string { return s.Figure8().String() },
		},
	}
}

// FigureNames lists the figures the service can render, sorted.
func FigureNames() []string {
	m := figures()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// handleFigure is GET /v1/figures/{fig}. Simulated figures fill their grid
// through submitKeyed with wait=true — grid points queue behind external
// runs (blocking, not rejected, so a figure request cannot trip its own
// backpressure) and share the result cache and coalescing with them.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	fig, ok := figures()[r.PathValue("fig")]
	if !ok {
		writeError(w, &httpError{status: 404,
			msg: fmt.Sprintf("unknown figure %q (have %v)", r.PathValue("fig"), FigureNames())})
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		writeError(w, &httpError{status: 400, msg: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	suite := s.suiteFor(s.cfg.BaseOptions)
	if len(fig.designs) > 0 {
		// Each benchmark's warm-up is paid once for every design of the
		// figure by a shared lane pass; its points are submitted as soon as
		// that pass lands.
		points := make([]experiments.GridPoint, 0, len(fig.designs)*len(tlc.Benchmarks()))
		for _, d := range fig.designs {
			for _, b := range tlc.Benchmarks() {
				points = append(points, experiments.GridPoint{Design: d, Bench: b, Opt: s.cfg.BaseOptions})
			}
		}
		err := s.runGrid(ctx, points, func(i int) error {
			d, b := points[i].Design, points[i].Bench
			rec, herr := s.submitKeyed(ctx, d, b, s.cfg.BaseOptions, true)
			if herr != nil {
				return herr
			}
			// Seed the rendering suite from the returned record: a grid
			// point served from the result cache never touched this suite
			// (it may be fresh, or rebuilt after LRU eviction), and render
			// below must be a pure lookup — not a serial background-context
			// re-simulation inside the HTTP handler that would bypass the
			// worker pool and the request deadline.
			if rec.Result != nil {
				var sres *tlc.SampledResult
				if suite.Sampled() {
					sres = &tlc.SampledResult{
						Result:        *rec.Result,
						CyclesCI:      rec.CyclesCI,
						MeanLookupCI:  rec.MeanLookupCI,
						MissesPer1KCI: rec.MissesPer1KCI,
					}
				}
				suite.Seed(d, b, *rec.Result, sres)
			}
			return nil
		})
		if err != nil {
			writeError(w, err.(*httpError))
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, fig.render(suite))
}

// handleHealth is GET /healthz: pure liveness — 200 for as long as the
// process serves HTTP, including while draining. A draining worker is not
// dead: its in-flight runs complete and its result cache still answers
// peer-fill lookups. Routing eligibility is /readyz's job, so a fleet
// coordinator can stop sending a draining worker new keys without
// declaring it dead and reassigning its whole arc early.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// handleReady is GET /readyz: readiness — 200 while accepting new runs,
// 503 once draining.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics is GET /metricz: the server's own registry, snapshotted.
// Gauges are read at wall-clock zero simulated time — the server registry
// holds no sim-time-dependent gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot(sim.Time(0))
	writeJSON(w, http.StatusOK, snap)
}
