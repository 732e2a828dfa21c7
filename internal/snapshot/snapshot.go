// Package snapshot stores warm-state checkpoints: the complete post-warm-up
// functional state of a simulated machine, keyed by everything that
// determines it. A seed study or parameter sweep re-pays the 4M–24M
// instruction functional warm-up for every (design, bench) point it visits;
// with a checkpoint the warm-up runs once and later runs restore its result
// directly.
//
// Determinism contract: warm-up is purely functional (cpu.Core.Warm and the
// designs' Warm methods touch arrays and shadow tags only — no timing
// resources, no statistics), so a checkpoint captures the machine exactly
// and a restored run is bit-identical to one that re-executed the warm-up.
// The warm-prefix capture is batch-driven (cpu.Source NextMems run-length
// skipping plus l2.Warmer bulk installs), which the contract survives
// because batching is pinned bit-identical to scalar delivery: checkpoints
// written by scalar warm-up and batched warm-up are interchangeable.
//
// The store is an in-process LRU with an optional on-disk tier. Disk
// persistence uses encoding/gob with atomic temp-file + rename writes, so
// concurrent processes sharing a directory never observe torn checkpoints.
package snapshot

import (
	"container/list"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/machine"
	"tlc/internal/nuca"
	"tlc/internal/tlcache"
	"tlc/internal/workload"
)

func init() {
	// The L2 half of a checkpoint is an opaque l2.State; gob needs the
	// concrete design types registered to encode through the interface.
	gob.Register(nuca.SNUCAState{})
	gob.Register(nuca.DNUCAState{})
	gob.Register(tlcache.State{})
}

// Key identifies one warm-up result: the design configuration (a hash of
// every parameter that shapes machine state), the benchmark, the seed that
// drove the warm-up stream, and the warm-up length. Two runs with equal
// keys provably reach identical post-warm state.
type Key struct {
	// Config is a hash of the design + system configuration, computed by
	// the caller (tlc.Options knows the full parameter set; this package
	// does not). It also versions the checkpoint format: callers bump the
	// hash input when state layouts change.
	Config string
	Bench  string
	Seed   int64
	Warm   uint64
}

// String renders the key for filenames and diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%s-%s-s%d-w%d", k.Config, k.Bench, k.Seed, k.Warm)
}

// filename is the key's on-disk name: an FNV hash keeps names short and
// filesystem-safe regardless of bench naming.
func (k Key) filename() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d", k.Config, k.Bench, k.Seed, k.Warm)
	return fmt.Sprintf("ckpt-%016x.gob", h.Sum64())
}

// Checkpoint is the complete post-warm machine state: core caches, L2
// contents, and the workload generator's stream position.
type Checkpoint struct {
	Core cpu.State
	L2   l2.State
	Gen  workload.State
	// Lanes marks a checkpoint produced by a lane-parallel warm pass (one
	// shared stream warming several configurations at once). Provenance
	// only: lane-warmed state is bit-identical to scalar-warmed state, so
	// consumers restore both the same way. Old stored checkpoints decode
	// with Lanes false.
	Lanes bool
	// CMP holds the extra state of an N-core machine (nil for single-core
	// checkpoints). It is the CMP provenance flag: consumers restoring for
	// a multi-core key must treat a checkpoint whose CMP is nil — or whose
	// core count differs — as a miss, the same way the lane planner's Has
	// probe gates lane reuse. Core/Gen keep core 0's state for such
	// checkpoints (redundantly with CMP.Cores[0]/Gens[0].Gen) so older
	// tooling reading the envelope sees a coherent single-core view.
	CMP *CMPCheckpoint
}

// CMPCheckpoint is an N-core machine's post-warm state beyond the shared
// L2: every core's cache state, every core's CMP stream position, and the
// MSI coherence directory (sorted by block; see
// machine.DirectorySnapshot).
type CMPCheckpoint struct {
	Cores []cpu.State
	Gens  []workload.CMPState
	Dir   []machine.DirEntry
}

// Stats counts store traffic, for tests and the experiment harness's
// cache-effectiveness reporting.
type Stats struct {
	// Hits counts Get calls satisfied from memory or disk.
	Hits uint64
	// DiskHits counts the subset of Hits served by reading the disk tier.
	DiskHits uint64
	// Misses counts Get calls that found nothing.
	Misses uint64
	// Puts counts checkpoints stored.
	Puts uint64
}

// Store is a bounded in-process LRU of checkpoints with an optional disk
// tier. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	cap     int
	dir     string
	order   *list.List // front = most recently used; values are *entry
	items   map[Key]*list.Element
	stats   Stats
	diskErr error // first disk failure, reported once via DiskErr
}

// entry is one resident checkpoint.
type entry struct {
	key Key
	ckp Checkpoint
}

// diskEnvelope is the on-disk record: the key rides along so a load
// verifies it got the checkpoint it asked for (hash-named files could
// collide in principle).
type diskEnvelope struct {
	Key        Key
	Checkpoint Checkpoint
}

// DefaultCapacity bounds the in-process tier. Checkpoints are megabytes
// each (L2 arrays dominate); a sweep touches one per (design, bench, warm),
// so a small multiple of the twelve benchmarks is plenty.
const DefaultCapacity = 64

// NewStore builds a store holding up to capacity checkpoints in memory
// (DefaultCapacity if capacity <= 0). If dir is non-empty, checkpoints are
// also written there and Get falls back to disk on a memory miss; the
// directory is created on first use.
func NewStore(capacity int, dir string) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		cap:   capacity,
		dir:   dir,
		order: list.New(),
		items: make(map[Key]*list.Element),
	}
}

// Get returns the checkpoint for k. The returned checkpoint's state values
// are shared with the store but treated as read-only by every consumer
// (Restore methods copy out of them), so concurrent Gets of the same key
// are safe.
func (s *Store) Get(k Key) (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		s.stats.Hits++
		return el.Value.(*entry).ckp, true
	}
	if s.dir != "" {
		if ckp, ok := s.load(k); ok {
			s.insertLocked(k, ckp)
			s.stats.Hits++
			s.stats.DiskHits++
			return ckp, true
		}
	}
	s.stats.Misses++
	return Checkpoint{}, false
}

// Has reports whether a checkpoint for k is resident in memory or present
// on the disk tier. Unlike Get it moves no LRU state, reads no disk
// payload, and leaves the traffic stats untouched — the lane planner
// probes with it to decide which lanes still need warming without
// perturbing the hit/miss accounting of the runs themselves.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[k]; ok {
		return true
	}
	if s.dir == "" {
		return false
	}
	_, err := os.Stat(filepath.Join(s.dir, k.filename()))
	return err == nil
}

// Put stores the checkpoint for k, evicting the least-recently-used entry
// if the memory tier is full, and writes it to the disk tier if configured.
// The caller must not mutate ckp's state values after Put.
func (s *Store) Put(k Key, ckp Checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(k, ckp)
	s.stats.Puts++
	if s.dir != "" {
		s.save(k, ckp)
	}
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DiskErr reports the first disk-tier failure, if any. Disk problems
// degrade the store to memory-only rather than failing runs; callers that
// care (the CLIs) surface this as a warning.
func (s *Store) DiskErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskErr
}

// insertLocked adds or refreshes a memory-tier entry. Caller holds mu.
func (s *Store) insertLocked(k Key, ckp Checkpoint) {
	if el, ok := s.items[k]; ok {
		el.Value.(*entry).ckp = ckp
		s.order.MoveToFront(el)
		return
	}
	s.items[k] = s.order.PushFront(&entry{key: k, ckp: ckp})
	for len(s.items) > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
	}
}

// save writes the checkpoint to the disk tier atomically. Caller holds mu.
func (s *Store) save(k Key, ckp Checkpoint) {
	err := func() error {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(s.dir, "ckpt-*.tmp")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		if err := gob.NewEncoder(tmp).Encode(diskEnvelope{Key: k, Checkpoint: ckp}); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		return os.Rename(tmp.Name(), filepath.Join(s.dir, k.filename()))
	}()
	if err != nil && s.diskErr == nil {
		s.diskErr = fmt.Errorf("snapshot: writing %s: %w", k, err)
	}
}

// load reads a checkpoint from the disk tier. Caller holds mu.
func (s *Store) load(k Key) (Checkpoint, bool) {
	f, err := os.Open(filepath.Join(s.dir, k.filename()))
	if err != nil {
		return Checkpoint{}, false // absent: a plain miss, not an error
	}
	defer f.Close()
	var env diskEnvelope
	if err := gob.NewDecoder(f).Decode(&env); err != nil || env.Key != k {
		// A torn or foreign file cannot happen via save's atomic rename,
		// but a truncated disk or hash collision could; treat as a miss.
		if err != nil && s.diskErr == nil {
			s.diskErr = fmt.Errorf("snapshot: reading %s: %w", k, err)
		}
		return Checkpoint{}, false
	}
	if err := env.Checkpoint.Validate(); err != nil {
		// Gob-valid but not a state any machine could have written: its
		// restore would trip an array invariant or trust a shadow that
		// disagrees with its arrays. Treat as a miss.
		if s.diskErr == nil {
			s.diskErr = fmt.Errorf("snapshot: reading %s: %w", k, err)
		}
		return Checkpoint{}, false
	}
	return env.Checkpoint, true
}

// validator is implemented by every L2 state registered with gob above.
type validator interface{ Validate() error }

// Validate checks a decoded checkpoint's cache states against the
// invariants their Restore methods trust: every L1 array (the core's, and
// each CMP core's) and the L2 state. Geometry against a particular machine
// is the Restore methods' check. Checkpoints taken by this process's own
// SnapshotState satisfy it by construction, so only disk loads pay for it.
func (c Checkpoint) Validate() error {
	if err := c.Core.L1.Validate(); err != nil {
		return fmt.Errorf("core L1: %w", err)
	}
	v, ok := c.L2.(validator)
	if !ok {
		return fmt.Errorf("L2 state %T cannot be validated", c.L2)
	}
	if err := v.Validate(); err != nil {
		return err
	}
	if c.CMP != nil {
		for i, core := range c.CMP.Cores {
			if err := core.L1.Validate(); err != nil {
				return fmt.Errorf("core %d L1: %w", i, err)
			}
		}
	}
	return nil
}
