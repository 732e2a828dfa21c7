// Package server implements the tlcd experiment service: the paper's
// evaluation behind an HTTP API. One long-running process amortizes what
// every one-shot CLI invocation re-pays — warm state, identical grid
// points, in-flight duplicates — through three layers that a request
// traverses in order:
//
//  1. a content-addressed LRU result cache keyed by tlc.RunKey (hits are
//     served without touching a worker),
//  2. request coalescing: an identical in-flight configuration is joined,
//     not re-enqueued, and the underlying execution is additionally
//     deduplicated by experiments.Suite's per-key singleflight,
//  3. a bounded worker pool fed by a bounded queue with explicit
//     backpressure — a full queue rejects with 429 and a Retry-After
//     estimate instead of queueing without bound.
//
// Per-request deadlines are cooperative: the executing simulation polls the
// request context at batch boundaries (tlc.Options.Cancel), so an expired
// deadline abandons the run mid-flight instead of simulating to completion
// for a client that stopped waiting. All runs share one warm-state
// checkpoint store: concurrent requests for the same benchmark reuse one
// warm prefix.
package server

import (
	"container/list"
	"context"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/experiments"
	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// Config parameterizes a Server. The zero value is usable: every field has
// a documented default.
type Config struct {
	// Workers bounds concurrent simulations (default 4).
	Workers int
	// QueueDepth bounds runs admitted but not yet executing; a full queue
	// rejects with 429 (default 4×Workers).
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 4096).
	CacheSize int
	// DefaultTimeout applies to requests that set none; MaxTimeout caps
	// client-requested timeouts (defaults 5m / 30m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Checkpoints is the shared warm-state store (an in-memory store is
	// built when nil). CheckpointDir adds a disk tier to the built store.
	Checkpoints   *tlc.CheckpointStore
	CheckpointDir string
	// Profiles is the shared phase-profile store every phase-sampled run
	// uses (an in-memory store is built when nil; CheckpointDir adds its
	// disk tier too). GET /v1/profiles/{key} serves from it — Peek only, so
	// a fleet's peer profile fetch can never recurse into computation.
	Profiles *tlc.PhaseProfileStore
	// BaseOptions are the options figure endpoints run with, and the
	// defaults RunOptions expand against conceptually (clients always send
	// explicit options; BaseOptions only drive /v1/figures). Zero means
	// tlc.DefaultOptions.
	BaseOptions tlc.Options

	// PeerFill, when set, is consulted once per admitted flight after the
	// local cache missed and coalescing collapsed the waiters — immediately
	// before simulating. In a fleet, internal/fleet.Member wires it to a
	// pure cache lookup (GET /v1/runs/{key}) on the node that owned the key
	// before this worker joined the ring, so a rebalanced ring pulls
	// results sideways instead of re-running the world. Returning false
	// (peer missing, down, or also cold) falls through to local execution —
	// peer fill is an optimization, never a dependency.
	PeerFill func(ctx context.Context, key string) (api.RunRecord, bool)

	// execute overrides run execution, for tests. The default executes
	// through a per-options experiments.Suite.
	execute func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error)
}

// Server is the service state. Create with New, serve via Handler, stop
// with Drain.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	start time.Time

	mu       sync.Mutex
	suites   map[string]*experiments.Suite // by Options.ContentKey
	suiteUse *list.List                    // LRU order of suite keys
	flights  map[string]*runFlight         // in-flight runs by RunKey
	cache    *lru                          // RunKey -> api.RunRecord
	draining bool

	queue   chan *runFlight
	workers sync.WaitGroup
	// drain closes when Drain begins: blocked figure-grid enqueues abort on
	// it with 503 instead of sending into a shutting-down pool. settled
	// closes once every blocking enqueue admitted before the drain has
	// resolved (tracked by sending), after which the queue can only shrink
	// and workers exit when it empties. The queue channel itself is never
	// closed, so no send can panic during shutdown.
	drain   chan struct{}
	settled chan struct{}
	sending sync.WaitGroup

	// nInFlight counts flights a worker is currently running (peer fill or
	// execution). It feeds the Retry-After estimate: only busy workers
	// contribute backlog, so the first 429 after a quiet period does not
	// charge the client for a full pool of idle workers.
	nInFlight atomic.Int64

	// Counters behind /metricz; atomics so the HTTP paths never contend
	// with the worker pool on mu for bookkeeping.
	nRequested atomic.Uint64
	nExecuted  atomic.Uint64
	// Per-fidelity-tier execution counts: nExecuted split by the run's
	// tier, so /metricz shows that fast and full traffic execute
	// separately (the fidelity e2e leg asserts no cross-tier cache hit).
	nExecutedFull atomic.Uint64
	nExecutedFast atomic.Uint64
	nCacheHits    atomic.Uint64
	nCoalesced    atomic.Uint64
	nRejected     atomic.Uint64
	nDeadline     atomic.Uint64
	nFailed       atomic.Uint64
	nHTTP         atomic.Uint64
	nPeerFills    atomic.Uint64
	nPeerMisses   atomic.Uint64

	// lanes collects the sim.lanes.* counters of the sweep and figure
	// grids, which run through the experiments grid executor.
	lanes experiments.LaneCounters
	// wallEWMA is an exponentially weighted mean of executed-run wall time
	// in milliseconds (float64 bits), feeding the Retry-After estimate.
	wallEWMA atomic.Uint64
}

// runFlight is one admitted run: installed in the flights map at admission,
// executed by a worker, awaited by its requesters. Its context is the union
// of its waiters' interest — it cancels when the last waiter gives up, so
// an abandoned run stops simulating at the next batch boundary.
type runFlight struct {
	key    string
	design tlc.Design
	bench  string
	opt    tlc.Options

	ctx    context.Context
	cancel context.CancelFunc
	refs   int // guarded by Server.mu

	done chan struct{}
	rec  api.RunRecord
	err  error
}

// maxSuites bounds the per-options suite cache. Each suite's internal
// result cache is bounded by the design×benchmark grid, so the worst-case
// footprint is maxSuites full grids of Results plus metric snapshots.
const maxSuites = 32

// defaultCacheSize is the result-cache capacity when Config.CacheSize is
// zero or invalid.
const defaultCacheSize = 4096

// New builds a server. Call Drain before discarding it.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	// CacheSize 0 means "default" by contract; anything negative is a
	// misconfiguration that would otherwise build a degenerate LRU (every
	// record evicted the moment it is inserted — a silently disabled result
	// cache). Clamp loudly instead.
	if cfg.CacheSize < 0 {
		log.Printf("server: invalid CacheSize %d clamped to default %d (a non-positive capacity would disable the result cache)", cfg.CacheSize, defaultCacheSize)
		cfg.CacheSize = defaultCacheSize
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = defaultCacheSize
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Minute
	}
	if cfg.Checkpoints == nil {
		cfg.Checkpoints = tlc.NewCheckpointStore(0, cfg.CheckpointDir)
	}
	if cfg.Profiles == nil {
		cfg.Profiles = tlc.NewPhaseProfileStore(0, cfg.CheckpointDir)
	}
	if cfg.BaseOptions.RunInstructions == 0 {
		base := tlc.DefaultOptions()
		base.Seed = cfg.BaseOptions.Seed
		if base.Seed == 0 {
			base.Seed = 1
		}
		cfg.BaseOptions = base
	}

	s := &Server{
		cfg:      cfg,
		reg:      metrics.New(),
		start:    time.Now(),
		suites:   make(map[string]*experiments.Suite),
		suiteUse: list.New(),
		flights:  make(map[string]*runFlight),
		cache:    newLRU(cfg.CacheSize),
		queue:    make(chan *runFlight, cfg.QueueDepth),
		drain:    make(chan struct{}),
		settled:  make(chan struct{}),
	}
	if s.cfg.execute == nil {
		s.cfg.execute = s.executeSuite
	}
	s.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// registerMetrics publishes the server's own counters on its registry —
// the same instrumentation spine the simulation layers use, read by
// /metricz.
func (s *Server) registerMetrics() {
	s.reg.CounterFunc("server.runs.requested", s.nRequested.Load)
	s.reg.CounterFunc("server.runs.executed", s.nExecuted.Load)
	s.reg.CounterFunc("server.runs.executed_full", s.nExecutedFull.Load)
	s.reg.CounterFunc("server.runs.executed_fast", s.nExecutedFast.Load)
	s.reg.CounterFunc("server.runs.cache_hits", s.nCacheHits.Load)
	s.reg.CounterFunc("server.runs.coalesced", s.nCoalesced.Load)
	s.reg.CounterFunc("server.runs.rejected", s.nRejected.Load)
	s.reg.CounterFunc("server.runs.deadline_exceeded", s.nDeadline.Load)
	s.reg.CounterFunc("server.runs.failed", s.nFailed.Load)
	s.reg.CounterFunc("server.runs.peer_fills", s.nPeerFills.Load)
	s.reg.CounterFunc("server.runs.peer_fill_misses", s.nPeerMisses.Load)
	s.reg.CounterFunc("server.http.requests", s.nHTTP.Load)
	s.reg.Gauge("server.runs.inflight", func(sim.Time) float64 { return float64(s.nInFlight.Load()) })
	s.reg.Gauge("server.queue.depth", func(sim.Time) float64 { return float64(len(s.queue)) })
	s.reg.Gauge("server.queue.capacity", func(sim.Time) float64 { return float64(cap(s.queue)) })
	s.reg.Gauge("server.uptime_seconds", func(sim.Time) float64 { return time.Since(s.start).Seconds() })
	s.reg.Gauge("server.run_wall_ewma_ms", func(sim.Time) float64 { return s.meanWallMS() })
	ck := s.cfg.Checkpoints
	s.reg.CounterFunc("server.checkpoints.hits", func() uint64 { return ck.Stats().Hits })
	s.reg.CounterFunc("server.checkpoints.misses", func() uint64 { return ck.Stats().Misses })
	pr := s.cfg.Profiles
	s.reg.CounterFunc("server.profiles.hits", func() uint64 { return pr.Stats().Hits })
	s.reg.CounterFunc("server.profiles.misses", func() uint64 { return pr.Stats().Misses })
	s.reg.CounterFunc("server.profiles.fill_hits", func() uint64 { return pr.Stats().FillHits })
	// The sim.lanes.* spine: how much grid warm-up the lane-parallel
	// passes absorbed (/metricz exposes these next to the run counters).
	s.reg.CounterFunc("sim.lanes.groups", s.lanes.Groups.Load)
	s.reg.CounterFunc("sim.lanes.lanes_warmed", s.lanes.Lanes.Load)
	s.reg.CounterFunc("sim.lanes.batches_shared", s.lanes.Batches.Load)
	s.reg.CounterFunc("sim.lanes.scalar_points", s.lanes.Scalar.Load)
}

// runGrid executes a sweep or figure grid on Workers executor slots: lane
// passes warm into the shared checkpoint store, bounded by ctx, and run —
// which submits a point through the ordinary pipeline — gets each point as
// soon as its pass lands.
func (s *Server) runGrid(ctx context.Context, points []experiments.GridPoint, run func(i int) error) error {
	for i := range points {
		points[i].Opt.Checkpoints = s.cfg.Checkpoints
		points[i].Opt.Cancel = ctx.Err
	}
	return experiments.Grid{Points: points, Run: run, Lanes: &s.lanes}.Execute(s.cfg.Workers)
}

// Metrics exposes the server's registry (tests and /metricz).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// httpError carries an HTTP status through the submit path.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; nonzero only for 429
}

func (e *httpError) Error() string { return e.msg }

// submit is the core of POST /v1/runs: resolve the content address, then
// cache → coalesce → enqueue, and wait bounded by ctx. wait=true turns a
// full queue into a ctx-bounded blocking enqueue instead of a 429 — the
// figure endpoints use it for their internal grid fills so one figure
// request cannot trip its own backpressure.
func (s *Server) submit(ctx context.Context, req api.RunRequest, wait bool) (api.RunRecord, *httpError) {
	d, err := req.Validate()
	if err != nil {
		return api.RunRecord{}, &httpError{status: 400, msg: err.Error()}
	}
	return s.submitKeyed(ctx, d, req.Benchmark, req.Options.Options(), wait)
}

// submitKeyed is submit after validation; the figure endpoints call it
// directly for their grid fills.
func (s *Server) submitKeyed(ctx context.Context, d tlc.Design, bench string, opt tlc.Options, wait bool) (api.RunRecord, *httpError) {
	s.nRequested.Add(1)
	key := tlc.RunKey(d, bench, opt)

	s.mu.Lock()
	if rec, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.nCacheHits.Add(1)
		rec.Cached = true
		return rec, nil
	}
	if s.draining {
		s.mu.Unlock()
		return api.RunRecord{}, &httpError{status: 503, msg: "server is draining"}
	}
	f, joined := s.flights[key]
	// Never coalesce onto a flight whose context is already cancelled (its
	// last waiter gave up): incrementing refs cannot un-cancel it, so a
	// joiner would inherit a spurious "context canceled" failure. deref
	// removes dead flights under mu, so this is defense in depth.
	if joined && f.ctx.Err() == nil {
		f.refs++
		s.nCoalesced.Add(1)
	} else {
		joined = false
		f = &runFlight{key: key, design: d, bench: bench, opt: opt, done: make(chan struct{}), refs: 1}
		f.ctx, f.cancel = context.WithCancel(context.Background())
		s.flights[key] = f
		if !wait {
			select {
			case s.queue <- f:
			default:
				delete(s.flights, key)
				f.cancel()
				s.mu.Unlock()
				s.nRejected.Add(1)
				return api.RunRecord{}, &httpError{
					status:     429,
					msg:        "run queue is full",
					retryAfter: s.retryAfterSeconds(),
				}
			}
		} else {
			// Register the upcoming blocking enqueue while mu still
			// guarantees !draining, so Drain can wait for it to resolve
			// before telling the workers the queue is settled.
			s.sending.Add(1)
		}
	}
	s.mu.Unlock()

	if wait && !joined {
		if herr := s.blockingEnqueue(ctx, f); herr != nil {
			return api.RunRecord{}, herr
		}
	}

	select {
	case <-f.done:
	case <-ctx.Done():
		s.deref(f)
		s.nDeadline.Add(1)
		return api.RunRecord{}, &httpError{status: 504, msg: ctx.Err().Error()}
	}
	s.deref(f)
	if f.err != nil {
		s.nFailed.Add(1)
		return api.RunRecord{}, &httpError{status: 500, msg: f.err.Error()}
	}
	rec := f.rec
	rec.Coalesced = joined
	return rec, nil
}

// blockingEnqueue submits a freshly installed flight to the queue, blocking
// until space frees — the figure-grid fill path, where backpressure must
// queue, not reject. It aborts if the requester's ctx dies or the server
// starts draining first; the aborted flight never reached a worker and
// never will, so it is removed from the flights map and failed so that any
// coalesced joiners get an answer instead of waiting out their deadlines.
func (s *Server) blockingEnqueue(ctx context.Context, f *runFlight) *httpError {
	var herr *httpError
	select {
	case s.queue <- f:
		s.sending.Done()
		return nil
	case <-s.drain:
		herr = &httpError{status: 503, msg: "server is draining"}
	case <-ctx.Done():
		s.nDeadline.Add(1)
		herr = &httpError{status: 504, msg: ctx.Err().Error()}
	}
	s.sending.Done()
	s.mu.Lock()
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	s.mu.Unlock()
	f.err = fmt.Errorf("run was never scheduled: %s", herr.msg)
	close(f.done)
	s.deref(f)
	return herr
}

// deref drops one waiter's interest in a flight; the last one out cancels
// the flight's context so an execution nobody is waiting for stops at its
// next batch boundary, and removes the dead flight from the flights map so
// a later identical request installs a fresh one instead of coalescing onto
// a cancelled context. Cancel and removal happen under mu: a concurrent
// submit either joined before refs hit zero (no cancel) or serializes
// after and finds the key absent — refs never resurrect from zero.
func (s *Server) deref(f *runFlight) {
	s.mu.Lock()
	f.refs--
	if f.refs == 0 {
		f.cancel()
		if s.flights[f.key] == f {
			delete(s.flights, f.key)
		}
	}
	s.mu.Unlock()
}

// worker executes queued flights until the queue is settled (Drain has
// begun and every pending enqueue has resolved) and empty.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case f := <-s.queue:
			s.runOne(f)
		case <-s.settled:
			// The queue can only shrink now: finish what's left and exit.
			for {
				select {
				case f := <-s.queue:
					s.runOne(f)
				default:
					return
				}
			}
		}
	}
}

// runOne executes one flight and publishes its outcome. With a PeerFill
// hook configured (fleet worker mode), the flight first tries to pull the
// result from the key's previous owner — a pure peer-cache lookup — and
// only simulates when no peer has it. The hook runs here, after the local
// cache and coalescing layers, so N concurrent requests for a remapped key
// cost one peer round-trip, not N.
func (s *Server) runOne(f *runFlight) {
	s.nInFlight.Add(1)
	defer s.nInFlight.Add(-1)

	if s.cfg.PeerFill != nil && f.ctx.Err() == nil {
		if rec, ok := s.cfg.PeerFill(f.ctx, f.key); ok {
			s.nPeerFills.Add(1)
			rec.ID = f.key
			rec.Cached = false
			rec.PeerFilled = true
			f.rec = rec
			s.mu.Lock()
			s.cache.add(f.key, f.rec)
			if s.flights[f.key] == f {
				delete(s.flights, f.key)
			}
			s.mu.Unlock()
			close(f.done)
			return
		}
		s.nPeerMisses.Add(1)
	}

	start := time.Now()
	rec, err := s.cfg.execute(f.ctx, f.design, f.bench, f.opt)
	wall := time.Since(start)

	f.rec, f.err = rec, err
	if err == nil {
		f.rec.ID = f.key
		f.rec.WallMS = float64(wall.Microseconds()) / 1000
		s.nExecuted.Add(1)
		if f.opt.FidelityTier() == tlc.FidelityFast {
			s.nExecutedFast.Add(1)
		} else {
			s.nExecutedFull.Add(1)
		}
		s.observeWall(f.rec.WallMS)
	}
	s.mu.Lock()
	if err == nil {
		s.cache.add(f.key, f.rec)
	}
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	s.mu.Unlock()
	close(f.done)
}

// executeSuite is the production execute hook: run through the per-options
// suite so identical configurations share the singleflight and the metrics
// aggregation, with the shared checkpoint store wired in.
func (s *Server) executeSuite(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
	suite := s.suiteFor(opt)
	var res tlc.Result
	var sres *tlc.SampledResult
	var err error
	if suite.Sampled() {
		var sr tlc.SampledResult
		sr, err = suite.SampledCtx(ctx, d, bench)
		res, sres = sr.Result, &sr
	} else {
		res, err = suite.RunCtx(ctx, d, bench)
	}
	if err != nil {
		return api.RunRecord{}, err
	}
	snap, _ := suite.RunMetrics(d, bench)
	rec := api.RecordFrom(res, sres, snap, 0)
	rec.Fidelity = opt.FidelityTier()
	// Embed the complete Result so remote callers reconstruct exactly what
	// this in-process run returned (the byte-identity contract).
	rec.Result = &res
	return rec, nil
}

// suiteFor returns the suite for opt's content key, building it (with the
// shared checkpoint store) on first use. Suites are kept LRU-bounded: each
// one retains at most a full grid of results, and maxSuites bounds how many
// option variants retain theirs.
func (s *Server) suiteFor(opt tlc.Options) *experiments.Suite {
	ck := opt.ContentKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	if suite, ok := s.suites[ck]; ok {
		for el := s.suiteUse.Front(); el != nil; el = el.Next() {
			if el.Value.(string) == ck {
				s.suiteUse.MoveToFront(el)
				break
			}
		}
		return suite
	}
	opt.Checkpoints = s.cfg.Checkpoints
	opt.PhaseProfiles = s.cfg.Profiles
	suite := experiments.NewSuite(opt)
	s.suites[ck] = suite
	s.suiteUse.PushFront(ck)
	for len(s.suites) > maxSuites {
		oldest := s.suiteUse.Back()
		s.suiteUse.Remove(oldest)
		delete(s.suites, oldest.Value.(string))
	}
	return suite
}

// observeWall folds one executed run's wall time into the EWMA.
func (s *Server) observeWall(ms float64) {
	for {
		old := s.wallEWMA.Load()
		prev := math.Float64frombits(old)
		next := ms
		if prev > 0 {
			next = 0.8*prev + 0.2*ms
		}
		if s.wallEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// meanWallMS reads the wall-time EWMA.
func (s *Server) meanWallMS() float64 {
	return math.Float64frombits(s.wallEWMA.Load())
}

// retryAfterSeconds estimates when queue space will open: the backlog's
// expected drain time across the pool, floored at one second. Backlog is
// queued runs plus runs actually in flight — idle workers contribute
// nothing, so the first 429 after a quiet period (queue momentarily full,
// pool mostly idle) is not over-estimated by a full Workers × mean. With
// no executed runs yet it answers 1.
func (s *Server) retryAfterSeconds() int {
	mean := s.meanWallMS()
	if mean <= 0 {
		return 1
	}
	busy := int(s.nInFlight.Load())
	if busy > s.cfg.Workers {
		busy = s.cfg.Workers
	}
	backlog := float64(len(s.queue)+busy) * mean / float64(s.cfg.Workers)
	secs := int(math.Ceil(backlog / 1000))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Draining reports whether Drain has begun (healthz flips to 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops intake and waits for queued work to finish, bounded by ctx:
// new runs are rejected with 503, queued and executing runs complete (their
// waiters get answers), then the worker pool exits. On ctx expiry the
// remaining flights are cancelled cooperatively and Drain returns ctx's
// error once the workers notice.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: already draining")
	}
	s.draining = true
	close(s.drain)
	s.mu.Unlock()

	// The queue channel is never closed — a figure-grid enqueue blocked on
	// a full queue could otherwise panic sending into it. Instead, wait for
	// the blocking enqueues admitted before draining flipped to resolve
	// (each lands in the queue or aborts on s.drain with a 503), then tell
	// the workers the queue is settled so they exit once it empties. New
	// sends register under mu while !draining, so none can start now.
	go func() {
		s.sending.Wait()
		close(s.settled)
	}()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Cut the remaining work loose: cancelling flight contexts aborts
		// executing runs at their next batch boundary.
		s.mu.Lock()
		for _, f := range s.flights {
			f.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
