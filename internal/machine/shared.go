// Package machine is the CMP simulation spine: it owns the event loop a
// single cpu.Core used to own, runs N cores as peers against one shared L2
// design, and layers an MSI coherence directory over the cores' private
// L1s. The cores' L1-miss traffic reaches the shared L2 through per-core
// NOC injection ports and a controller frontier that arbitrates the
// interleaved request streams onto the design's monotone-time calendars.
//
// A one-core Machine has no Shared layer: its core drives the
// instrumented L2 directly, so the one-core machine every single-core run
// uses makes exactly the calls the paper's single-core processor model
// does (TestSingleCoreMachineMatchesCore and the root package's
// TestCMPSingleCoreEquivalence pin this).
package machine

import (
	"math/bits"
	"sort"

	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/noc"
	"tlc/internal/sim"
)

// dirLine is one directory entry: the bitmask of cores holding the block
// in their L1, and the exclusive owner when some core's copy is modified.
// owner stores core+1 so the zero value means "no owner" — an int16 keeps
// the entry at 10 bytes and leaves room far beyond the 64-core bitmask
// limit.
type dirLine struct {
	sharers uint64
	owner   int16
}

// Shared is the shared-L2 side of the CMP: per-core injection ports, the
// controller frontier serializing N cores' traffic onto the inner design's
// non-decreasing-time contract, and the MSI directory over the private
// L1s. It implements cpu.Coherence (StoreNotify is the BusRdX moment) and
// hands each core an l2.Cache façade via Port.
//
// The directory is an over-approximation, as hardware sparse directories
// are: a core that silently drops a clean line stays listed as a sharer
// until a BusRdX sweeps it, costing a spurious (miss) invalidation probe
// but never missing a real copy.
type Shared struct {
	inner l2.Cache
	ports *noc.Ports
	cores []*cpu.Core

	// frontier is the latest time the inner design has been accessed at;
	// requests arriving earlier (a core running behind its peers) are
	// arbitrated onto the controller no earlier than it.
	frontier sim.Time

	dir map[mem.Block]dirLine

	counters struct {
		busRd, busRdX             uint64
		invalidations, downgrades uint64
		writebacks                uint64
		arbRequests, arbDelayed   uint64
	}
	arbDelayCycles sim.Time
}

// NewShared builds the shared-L2 layer for an N-core machine over the
// inner design. Attach must be called with the cores before any timed
// access; construction is split because each core needs its Port façade
// at its own construction time.
func NewShared(inner l2.Cache, cores int) *Shared {
	if cores < 2 || cores > 64 {
		panic("machine: Shared needs 2..64 cores")
	}
	return &Shared{
		inner: inner,
		ports: noc.NewPorts(cores),
		dir:   make(map[mem.Block]dirLine),
	}
}

// Attach installs the cores the directory probes (Invalidate/Downgrade)
// and registers this Shared as each core's coherence hook.
func (s *Shared) Attach(cores []*cpu.Core) {
	if len(cores) != s.ports.Cores() {
		panic("machine: core count mismatch")
	}
	s.cores = cores
	for i, c := range cores {
		c.SetCoherence(i, s)
	}
}

// Port returns core i's view of the shared L2: timed accesses go through
// the core's injection port and the controller frontier; functional warm
// installs pass straight through to the inner design.
func (s *Shared) Port(core int) l2.Cache { return &port{s: s, core: core} }

// port is one core's l2.Cache façade over the Shared layer.
type port struct {
	s    *Shared
	core int
}

func (p *port) Access(at sim.Time, req mem.Request) l2.Outcome {
	return p.s.access(at, req, p.core)
}

func (p *port) Warm(b mem.Block)          { p.s.inner.Warm(b) }
func (p *port) Contains(b mem.Block) bool { return p.s.inner.Contains(b) }

// WarmBulk keeps the warm fast path's batched delivery through the
// façade: the inner design's Warmer (when it has one) sees the same bulk
// installs it would driven directly.
func (p *port) WarmBulk(blocks []mem.Block) { l2.WarmAll(p.s.inner, blocks) }

// access is the timed path: inject at the core's port, arbitrate onto the
// controller frontier, run the directory action for the request class, and
// perform the inner access. Loads are BusRd; the only stores the L2 sees
// from a core are dirty-victim writebacks (stores themselves retire in the
// L1 — their coherence moment is StoreNotify).
func (s *Shared) access(at sim.Time, req mem.Request, core int) l2.Outcome {
	at = s.ports.Inject(at, core)
	s.counters.arbRequests++
	if at < s.frontier {
		// A core running behind its peers: its request reaches a controller
		// whose calendars have already been booked past `at`. Arbitrate it
		// in at the frontier — the design's Resources require
		// non-decreasing times.
		s.counters.arbDelayed++
		s.arbDelayCycles += s.frontier - at
		at = s.frontier
	} else {
		s.frontier = at
	}
	if req.Type == mem.Load {
		s.busRd(at, req.Block, core)
	} else {
		s.victimDrop(req.Block, core)
	}
	return s.inner.Access(at, req)
}

// busRd records a load miss in the directory: a remote modified copy is
// downgraded to shared (its dirty data written back to the L2 before the
// read), and the reader joins the sharer set.
func (s *Shared) busRd(at sim.Time, b mem.Block, core int) {
	s.counters.busRd++
	d := s.dir[b]
	if o := int(d.owner) - 1; o >= 0 && o != core {
		if _, wasDirty := s.cores[o].Downgrade(b); wasDirty {
			s.counters.downgrades++
			s.writeback(at, b, o)
		}
		d.owner = 0
	}
	d.sharers |= 1 << uint(core)
	s.dir[b] = d
}

// victimDrop removes a core from a block's sharer set when its L1 evicts
// the dirty line (the writeback itself proceeds to the inner design).
// Entries with no remaining sharers are deleted, keeping the directory
// bounded by the aggregate L1 footprint.
func (s *Shared) victimDrop(b mem.Block, core int) {
	d, ok := s.dir[b]
	if !ok {
		return
	}
	d.sharers &^= 1 << uint(core)
	if int(d.owner)-1 == core {
		d.owner = 0
	}
	if d.sharers == 0 {
		delete(s.dir, b)
		return
	}
	s.dir[b] = d
}

// StoreNotify implements cpu.Coherence: the BusRdX / upgrade moment. Every
// remote copy is invalidated (a remote modified copy writes back first);
// the writer becomes the exclusive owner. A store by the current owner is
// the silent upgrade hit — one map probe, no traffic.
func (s *Shared) StoreNotify(core int, b mem.Block) {
	s.counters.busRdX++
	d := s.dir[b]
	if int(d.owner)-1 == core {
		return
	}
	rest := d.sharers &^ (1 << uint(core))
	for rest != 0 {
		j := bits.TrailingZeros64(rest)
		rest &^= 1 << uint(j)
		present, wasDirty := s.cores[j].Invalidate(b)
		if !present {
			continue // stale sharer bit: the copy was silently dropped
		}
		s.counters.invalidations++
		if wasDirty {
			// The invalidated modified copy drains to the L2 off the
			// writer's critical path; the frontier is the earliest time the
			// controller can take it.
			s.writeback(s.frontier, b, j)
		}
	}
	s.dir[b] = dirLine{sharers: 1 << uint(core), owner: int16(core) + 1}
}

// writeback charges the inner design with a coherence-induced writeback
// from the given core — the bandwidth cost that makes coherence traffic
// visible in the designs' bank and link contention.
func (s *Shared) writeback(at sim.Time, b mem.Block, core int) {
	s.counters.writebacks++
	s.inner.Access(at, mem.Request{Block: b, Type: mem.Store, Core: core})
}

// SeedDirectory rebuilds the directory from the cores' current L1
// contents: every resident line becomes a sharer entry, dirty lines claim
// ownership. Warm-up is functional and runs without coherence, so this is
// how a machine enters (or re-enters, after a sampled-mode fast-forward
// stretch) the coherent regime; when warm left a block dirty in several
// L1s, the highest-numbered core wins ownership deterministically.
func (s *Shared) SeedDirectory() {
	clear(s.dir)
	for i, c := range s.cores {
		bit := uint64(1) << uint(i)
		own := int16(i) + 1
		c.VisitL1(func(b mem.Block, dirty bool) {
			d := s.dir[b]
			d.sharers |= bit
			if dirty {
				d.owner = own
			}
			s.dir[b] = d
		})
	}
}

// DirEntry is one directory entry in checkpoint form. Fields are exported
// for gob encoding by the on-disk checkpoint store.
type DirEntry struct {
	Block   mem.Block
	Sharers uint64
	Owner   int16
}

// DirectorySnapshot captures the directory sorted by block, so snapshots
// of equal state are byte-identical regardless of map iteration order.
func (s *Shared) DirectorySnapshot() []DirEntry {
	out := make([]DirEntry, 0, len(s.dir))
	for b, d := range s.dir {
		out = append(out, DirEntry{Block: b, Sharers: d.sharers, Owner: d.owner})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// RestoreDirectory replaces the directory with a captured snapshot.
func (s *Shared) RestoreDirectory(entries []DirEntry) {
	clear(s.dir)
	for _, e := range entries {
		s.dir[e.Block] = dirLine{sharers: e.Sharers, owner: e.Owner}
	}
}

// DirEntries reports the live directory size (tests and reporting).
func (s *Shared) DirEntries() int { return len(s.dir) }

// RegisterMetrics publishes the coherence and arbitration counters, plus
// the injection-port counters, under "coh.", "cmp.arb.", and "noc.port.".
// Only CMP machines register these names: single-core runs must keep their
// registry snapshot unchanged.
func (s *Shared) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("coh.busrd", func() uint64 { return s.counters.busRd })
	r.CounterFunc("coh.busrdx", func() uint64 { return s.counters.busRdX })
	r.CounterFunc("coh.invalidations", func() uint64 { return s.counters.invalidations })
	r.CounterFunc("coh.downgrades", func() uint64 { return s.counters.downgrades })
	r.CounterFunc("coh.writebacks", func() uint64 { return s.counters.writebacks })
	r.CounterFunc("cmp.arb.requests", func() uint64 { return s.counters.arbRequests })
	r.CounterFunc("cmp.arb.delayed", func() uint64 { return s.counters.arbDelayed })
	r.CounterFunc("cmp.arb.delay_cycles", func() uint64 { return uint64(s.arbDelayCycles) })
	s.ports.RegisterMetrics(r)
}

// ResetCounters zeroes the traffic counters (warm-up noise) while keeping
// the directory and frontier — the timed run starts from the warmed state.
func (s *Shared) ResetCounters() {
	s.counters = struct {
		busRd, busRdX             uint64
		invalidations, downgrades uint64
		writebacks                uint64
		arbRequests, arbDelayed   uint64
	}{}
	s.arbDelayCycles = 0
}
