// Package engine is a concurrent indexed retrieval engine: the first
// vertical slice of the serving system the roadmap aims at. It
// evaluates a multi-concept query document-at-a-time over a compacted
// inverted index (index.Compact), runs a weighted proximity best-join
// per candidate document on a sharded worker pool, and keeps a global
// top-k document heap — the document-at-a-time, budgeted shape that
// Fagin-style threshold algorithms and response-time-guaranteed
// proximity indexes both converge on.
//
// The engine supports context cancellation and deadlines (a query that
// runs out of time returns its best-so-far answer marked Partial), an
// LRU cache of posting blocks whose documents stay decoded once read,
// so repeated queries skip posting decompression entirely, and an
// observability layer of atomic counters plus a latency histogram,
// exposed via Stats() and optionally expvar (Publish).
//
// Joins run on reusable kernels (join.Kernel): a query supplies a
// KernelFactory, each worker builds one kernel from it and reuses that
// kernel's scratch for every candidate document it evaluates, so the
// cached query path performs almost no per-document allocation.
//
// The engine is built to degrade, not die, under partial failure
// (DESIGN.md "Failure model & graceful degradation"):
//
//   - Panic isolation: kernels run user-supplied scoring closures, so
//     every kernel invocation is wrapped in recover(). A panicking
//     join poisons only that kernel — the worker discards it, rebuilds
//     one from the query's factory, drops that single document, and
//     the query completes with Result.Degraded set instead of taking
//     the process down. Recovered panics are counted in
//     Stats().JoinPanics.
//   - Admission control: Config.MaxInFlight bounds concurrently
//     admitted queries; at the cap, Search either waits for a slot
//     until the context expires (OverloadBlock) or fails fast
//     (OverloadShed), returning ErrOverloaded either way. Shed load is
//     counted in Stats().Shed.
//   - Hot index swap: SwapIndex atomically replaces the live index;
//     in-flight queries finish on the snapshot they started with, and
//     the caches are epoch-keyed so a swap can never serve stale
//     entries to new queries.
//
// The engine is also the unit of horizontal scale: Searcher
// (searcher.go) abstracts its query surface so internal/shard can
// scatter one query across N doc-partitioned child engines and
// rank-merge their heaps, with Query.Floor sharing one pruning floor
// across the whole partition and SearchSnapshot pinning each child to
// a coordinator-chosen epoch.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// Defaults for Config and Query zero values.
const (
	DefaultK             = 10
	DefaultCacheLists    = 4096
	DefaultCacheConcepts = 256
	DefaultQueueDepth    = 64
)

// MaxK caps Query.K: a larger K is a malformed query, refused before
// any work is done, on every entry point and on the wire.
const MaxK = 1 << 16

// Config sizes the engine.
type Config struct {
	// Workers is the number of join workers per query; ≤ 0 means
	// GOMAXPROCS.
	Workers int
	// CacheLists caps the match-list LRU, counted in blocks: one entry
	// is one concept's block of ~index.BlockSize documents — its
	// directory and match-area offsets, whose documents' match lists
	// decode on first need and stay in the entry; ≤ 0 means
	// DefaultCacheLists.
	CacheLists int
	// CacheConcepts caps the concept → block-table LRU in entries;
	// ≤ 0 means DefaultCacheConcepts.
	CacheConcepts int
	// CacheBytes additionally bounds the match-list cache by the total
	// byte cost of its entries — blocks vary by orders of magnitude, so
	// an entry-count cap alone can pin anywhere from kilobytes to
	// gigabytes. An entry is charged on insert for its block fully
	// decoded, however few of its documents are decoded later. ≤ 0
	// keeps the default entry-count-only behavior; > 0 is a hard bound
	// (Stats().CacheBytes reports the accounted size).
	CacheBytes int64
	// DisablePruning turns off max-score top-k pruning; the zero
	// Config prunes (the knob defaults to on). Pruning is lossless —
	// the differential harness proves pruned and unpruned engines
	// return identical results — so the switch exists for that harness
	// and for measuring the pruning win, not for correctness.
	DisablePruning bool
	// MaxInFlight caps concurrently admitted queries; ≤ 0 means
	// unlimited (no admission control).
	MaxInFlight int
	// Overload picks the behavior at the MaxInFlight cap:
	// OverloadBlock (zero value) or OverloadShed.
	Overload OverloadPolicy
	// QueueDepth caps each worker's candidate job queue; ≤ 0 means
	// DefaultQueueDepth. Smaller queues bound the dispatcher's
	// lead over the workers; they never change results.
	QueueDepth int
	// DisableCoalescing turns off cross-query decode coalescing
	// (coalesce.go); the zero Config coalesces. Coalescing never
	// changes results — waiters receive the very entry the leader
	// built — so the switch exists for the differential harness and for
	// measuring the coalescing win.
	DisableCoalescing bool
	// Mode is the default query mode for queries that leave Query.Mode
	// unset: ModeAND (the zero value, conjunctive intersection) or
	// ModeOR (ranked union). See QueryMode.
	Mode QueryMode
	// DisablePairIndex turns off the auxiliary pair-index planner stage
	// (pairpath.go); the zero Config uses registered pair lists. Pair
	// serving is exact — the lists store the same kernel's scores — so
	// the switch exists for the differential harness and for measuring
	// the pair-index win.
	DisablePairIndex bool
}

// Engine answers top-k queries over one compacted index. It is safe
// for concurrent use; all mutable state is the snapshot pointer, the
// pair plan, the two caches, and the stats counters, each with its own
// synchronization.
type Engine struct {
	snap     atomic.Pointer[snapshot]
	planning atomic.Pointer[pairPlanning] // nil until SetPairPlan
	building sync.Mutex                   // one background pair build at a time
	builds   sync.WaitGroup               // background pair builds in flight
	workers  int
	prune    bool
	pairs    bool
	coalesce bool
	queue    int
	mode     QueryMode
	admit    admitter
	lists    *lruCache[listKey, *listEntry]
	concepts *lruCache[conceptKey, *blockSet]
	flights  flightGroup
	counters counters
	latency  histogram
}

// listEntry is one match-list cache value: one block's directory and
// match-area offsets (index.BlockDocs), whose documents decode on
// first need (docList) and stay in the entry — slot d of lists holds
// document d's matches once state[d] is slotReady.
type listEntry struct {
	bd    index.BlockDocs
	lists []match.List
	state []atomic.Uint32
	arena matchArena
	slack int // arenaSlack: matches the arena may allocate past bd.Total
}

// matchBytes is the in-memory size of one match.Match (int + float64)
// for byte-cost cache accounting.
const matchBytes = 16

// docHeaderBytes is an entry's per-document overhead: the id, the
// list header, the slot state, and index.BlockDocs's offsets (24).
const docHeaderBytes = 8 + 24 + 4 + 24

// listEntryCost is one cache entry's resident bytes with every
// document decoded — the block's matches plus the arena's bounded
// slack — plus per-document headers and fixed bookkeeping. It is
// charged in full on insert, so Config.CacheBytes bounds the cache
// however many of its documents get decoded later.
func listEntryCost(v *listEntry) int64 {
	return int64(v.bd.Total+v.slack)*matchBytes + int64(len(v.bd.Docs))*docHeaderBytes +
		int64(unsafe.Sizeof(*v)) + 64
}

// conceptKey identifies one cached concept block table under one index
// epoch: entries cached against a swapped-out index are unreachable
// by construction.
type conceptKey struct {
	epoch uint64
	fp    uint64
}

// listKey identifies one decoded match-list cache entry: an index
// epoch, a concept fingerprint, and a block index in that concept's
// table.
type listKey struct {
	epoch uint64
	blk   int
	fp    uint64
}

// New builds an engine over a compacted index.
func New(idx *index.Compact, cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheLists <= 0 {
		cfg.CacheLists = DefaultCacheLists
	}
	if cfg.CacheConcepts <= 0 {
		cfg.CacheConcepts = DefaultCacheConcepts
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	lists := newLRU[listKey, *listEntry](cfg.CacheLists)
	if cfg.CacheBytes > 0 {
		lists = newLRUBytes[listKey, *listEntry](cfg.CacheLists, cfg.CacheBytes, listEntryCost)
	}
	e := &Engine{
		workers:  cfg.Workers,
		prune:    !cfg.DisablePruning,
		pairs:    !cfg.DisablePairIndex,
		coalesce: !cfg.DisableCoalescing,
		queue:    cfg.QueueDepth,
		mode:     cfg.Mode,
		admit:    newAdmitter(cfg.MaxInFlight, cfg.Overload),
		lists:    lists,
		concepts: newLRU[conceptKey, *blockSet](cfg.CacheConcepts),
		flights:  flightGroup{m: make(map[listKey]*flightCall)},
	}
	e.snap.Store(newSnapshot(idx, 0, &pairPrep{}))
	return e
}

// ResetCache drops both caches, restoring the cold-query path.
// Benchmarks use it to compare cold and cached latency.
func (e *Engine) ResetCache() {
	e.lists.Reset()
	e.concepts.Reset()
}
