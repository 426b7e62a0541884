package engine

import "bestjoin/internal/index"

// Epoch-keyed snapshotting: the machinery behind zero-downtime index
// reloads. The engine's only pointer to its index lives in one atomic
// snapshot; a query loads it once at admission and uses it
// throughout, so SwapIndex can never mix two indexes inside one
// query, and a new query reads only the new index's stems. The
// exported Snapshot
// handle extends the same guarantee across engines: a shard
// coordinator pins one snapshot per child before scattering a query
// (SearchSnapshot), so a rolling reload that has already swapped some
// shards — but not yet flipped the coordinator's generation — cannot
// produce a mixed-epoch answer.

// snapshot pairs a live index with its reload epoch. Queries load one
// snapshot at admission and use it throughout, so SwapIndex never
// mixes two indexes inside one query. A snapshot is immutable once
// published.
type snapshot struct {
	idx   *index.Compact
	epoch uint64
}

// Snapshot is an opaque handle pinning one (index, epoch) pair of an
// engine. Handles stay valid forever: a swapped-out snapshot keeps
// serving the queries pinned to it. The zero Snapshot pins nothing and
// is rejected by SearchSnapshot.
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
// after the swap see only the new index, whose stems decode on their
// first use there — the old index's decoded stems go with it.
func (e *Engine) SwapIndex(idx *index.Compact) {
	old := e.snap.Load()
	e.snap.Store(&snapshot{idx: idx, epoch: old.epoch + 1})
	e.count(Tally{IndexReloads: 1})
}

// Index returns the engine's current live index.
func (e *Engine) Index() *index.Compact { return e.snap.Load().idx }

// Epoch returns the engine's current reload epoch: 0 at creation,
// incremented by every SwapIndex.
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }
