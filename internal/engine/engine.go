// Package engine is a concurrent indexed retrieval engine: the first
// vertical slice of the serving system the roadmap aims at. It
// evaluates a multi-concept query document-at-a-time over a compacted
// inverted index (index.Compact) and keeps a global top-k document heap
// — the document-at-a-time, budgeted shape that Fagin-style threshold
// algorithms and response-time-guaranteed proximity indexes both
// converge on. Config.Workers walkers per query split the query's
// document-id span into ranges; each walks its ranges with its own
// concept cursors and runs a weighted proximity best-join on every
// candidate it confirms and cannot prune (union.go).
//
// The engine supports context cancellation and deadlines (a query that
// runs out of time returns its best-so-far answer marked Partial) and
// an observability layer: each query counts into its own Tally, added
// with its latency to the engine's total when it finishes, exposed via
// Stats() and optionally expvar (Publish). It keeps no
// cache of its own: a concept is the query-time union of its member
// stems, whose postings the index decodes into plain arrays once, on
// each stem's first use (concept.go).
//
// Joins run on reusable kernels (join.Kernel): a query supplies a
// KernelFactory, each walker builds one kernel from it and reuses that
// kernel's scratch for every candidate document it evaluates, so the
// cached query path performs almost no per-document allocation.
//
// The engine is built to degrade, not die, under partial failure
// (DESIGN.md "Failure model & graceful degradation"):
//
//   - Panic isolation: kernels run user-supplied scoring closures, so
//     every kernel invocation is wrapped in recover(). A panicking
//     join poisons only that kernel — the walker discards it, rebuilds
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
//     new queries read only the new index's stems.
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

	"bestjoin/internal/index"
)

// DefaultK is the number of documents a Query with K ≤ 0 returns.
const DefaultK = 10

// MaxK caps Query.K: a larger K is a malformed query, refused before
// any work is done, on every entry point and on the wire.
const MaxK = 1 << 16

// Config sizes the engine.
type Config struct {
	// Workers is the number of walkers per query, each walking its own
	// document-id ranges and joining the candidates it confirms; ≤ 0
	// means GOMAXPROCS. At 1 the query runs on the calling goroutine
	// alone.
	Workers int
	// CacheLists is ignored: the engine keeps no match-list cache.
	//
	// Deprecated: it remains so that callers written against the
	// former list cache still compile.
	CacheLists int
	// MaxInFlight caps concurrently admitted queries; ≤ 0 means
	// unlimited (no admission control).
	MaxInFlight int
	// Overload picks the behavior at the MaxInFlight cap:
	// OverloadBlock (zero value) or OverloadShed.
	Overload OverloadPolicy
	// DisablePairIndex is ignored: no query is served from pair lists.
	//
	// Deprecated: kept for bench/ only; goes with ROADMAP item 1.
	DisablePairIndex bool
}

// Engine answers top-k queries over one compacted index. It is safe
// for concurrent use; all mutable state is the snapshot pointer and
// the counter total with its latency histogram, each with its own
// synchronization.
type Engine struct {
	snap    atomic.Pointer[snapshot]
	workers int
	admit   admitter
	mu      sync.Mutex // guards total and latency
	total   Tally
	latency histogram
}

// New builds an engine over a compacted index.
func New(idx *index.Compact, cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: cfg.Workers,
		admit:   newAdmitter(cfg.MaxInFlight, cfg.Overload),
	}
	e.snap.Store(&snapshot{idx: idx})
	return e
}
