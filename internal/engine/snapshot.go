package engine

import "bestjoin/internal/index"

// Epoch-keyed snapshotting: the machinery behind zero-downtime index
// reloads. The engine's only pointer to its index lives in one atomic
// snapshot; a query loads it once at admission and uses it
// throughout, so SwapIndex can never mix two indexes inside one
// query, and the caches are keyed by the snapshot's epoch so a swap
// can never serve stale entries to new queries. The exported Snapshot
// handle extends the same guarantee across engines: a shard
// coordinator pins one snapshot per child before scattering a query
// (SearchSnapshot), so a rolling reload that has already swapped some
// shards — but not yet flipped the coordinator's generation — cannot
// produce a mixed-epoch answer.

// snapshot pairs a live index with its reload epoch. Queries load one
// snapshot at admission and use it throughout, so SwapIndex never
// mixes two indexes inside one query. A snapshot is immutable once
// published; AttachPairs publishes a successor under the same epoch.
type snapshot struct {
	idx   *index.Compact
	epoch uint64
	// specs are the kernel fingerprints with pair lists on idx
	// (idx.PairSpecs(), ascending): what a query's spec can be served
	// from without a build.
	specs []uint64
	// prep records the background pair builds of this epoch; every
	// snapshot of one epoch shares it (pairprep.go).
	prep *pairPrep
}

func newSnapshot(idx *index.Compact, epoch uint64, prep *pairPrep) *snapshot {
	return &snapshot{idx: idx, epoch: epoch, specs: idx.PairSpecs(), prep: prep}
}

// Snapshot is an opaque handle pinning one (index, epoch) pair of an
// engine. Handles stay valid forever: a swapped-out snapshot keeps
// serving the queries pinned to it (its cache entries age out of the
// LRUs naturally). The zero Snapshot pins nothing and is rejected by
// SearchSnapshot.
type Snapshot struct {
	snap *snapshot
}

// Snapshot returns a handle to the engine's current (index, epoch)
// pair, for queries that must agree with other queries — or other
// engines — about which index generation they observe.
func (e *Engine) Snapshot() Snapshot { return Snapshot{snap: e.snap.Load()} }

// Epoch returns the handle's reload epoch (0 for the zero Snapshot).
func (s Snapshot) Epoch() uint64 {
	if s.snap == nil {
		return 0
	}
	return s.snap.epoch
}

// Docs returns the document count of the pinned index (0 for the zero
// Snapshot).
func (s Snapshot) Docs() int {
	if s.snap == nil {
		return 0
	}
	return s.snap.idx.Docs()
}

// SwapIndex atomically replaces the engine's live index — the
// hot-reload path (proxserve triggers it on SIGHUP). Queries already
// in flight finish on the snapshot they started with; queries admitted
// after the swap see only the new index, because the caches are keyed
// by reload epoch (stale entries age out of the LRUs, and both caches
// are dropped eagerly to give the new index the full capacity). The
// pair plan (SetPairPlan) carries over; lists built in the background
// for the old index do not, and are rebuilt on demand.
func (e *Engine) SwapIndex(idx *index.Compact) {
	old := e.snap.Load()
	e.snap.Store(newSnapshot(idx, old.epoch+1, &pairPrep{}))
	e.counters.indexReloads.Add(1)
	e.lists.Reset()
	e.concepts.Reset()
}

// Index returns the engine's current live index.
func (e *Engine) Index() *index.Compact { return e.snap.Load().idx }

// Epoch returns the engine's current reload epoch: 0 at creation,
// incremented by every SwapIndex.
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// AttachPairs publishes idx as the live index in place of the one base
// pins, WITHOUT advancing the epoch. idx must be base's index plus
// pair lists (index.Compact.ForkPairs, then a pair build): a pair list
// stores the kernel's own outputs, so every query answers the same
// before and after the attach, and everything keyed or gated by the
// epoch — cache entries, queries in flight on the old pointer, a
// coordinator's pinned-epoch health check — stays valid. A query still
// holding the old pointer is merely slower.
//
// The attach is a compare-and-swap: it reports false, and publishes
// nothing, when the engine's live snapshot is no longer base (a
// SwapIndex or another attach got there first).
func (e *Engine) AttachPairs(base Snapshot, idx *index.Compact) bool {
	if base.snap == nil {
		return false
	}
	return e.snap.CompareAndSwap(base.snap, newSnapshot(idx, base.snap.epoch, base.snap.prep))
}
