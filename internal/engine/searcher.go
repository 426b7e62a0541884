package engine

import (
	"context"

	"bestjoin/internal/index"
)

// Searcher is the query surface an Engine exposes, abstracted so a
// caller cannot tell one engine from a fleet of them: internal/shard's
// Coordinator implements the same interface by scatter-gathering N
// doc-partitioned children and rank-merging their heaps. cmd/proxserve
// serves either one unchanged: an Engine, or a coordinator over remote
// shard processes (bestjoin.NewRemoteFleet).
type Searcher interface {
	// Search evaluates one query; see Engine.Search for the error and
	// degradation contract every implementation must honor.
	Search(ctx context.Context, q Query) (*Result, error)
	// Stats returns a point-in-time snapshot of the searcher's
	// observability counters; fleet implementations roll their members
	// up into the top-level fields and list them under Stats.Shards.
	Stats() Stats
	// SwapIndex hot-reloads the serving index without draining
	// queries; fleet implementations partition the new index and roll
	// it across their members one at a time.
	SwapIndex(idx *index.Compact)
	// Health reports serving readiness: the current index epoch,
	// document count, and — for fleets — per-shard readiness.
	Health() Health
}

// Engine and shard.Coordinator are the two Searcher implementations;
// the Engine half of the contract is pinned here.
var _ Searcher = (*Engine)(nil)

// Health is a searcher's readiness report, shaped for a server's
// /healthz endpoint.
type Health struct {
	// Ready is true when every underlying engine can serve queries.
	Ready bool `json:"ready"`
	// Epoch is the serving index generation: the engine's reload
	// epoch, or a coordinator's generation number (which advances once
	// per completed rolling reload).
	Epoch uint64 `json:"epoch"`
	// Docs is the serving corpus size in documents.
	Docs int `json:"docs"`
	// ResidentBytes is what the serving index holds decoded: its
	// stems' arrays and its kept concept tables, from their slices'
	// capacities (index.Compact.ResidentBytes); a fleet's is the sum
	// of its shards'.
	ResidentBytes int64 `json:"resident_bytes"`
	// Shards lists per-shard readiness, present only for sharded
	// searchers.
	Shards []ShardHealth `json:"shards,omitempty"`
	// Err carries the last reload or rolling-swap error ("" when the
	// last one succeeded): a coordinator whose health-gated roll
	// stalled or aborted reports it here, and proxserve merges the
	// SIGHUP reload loop's last failure in, so a health checker sees
	// why a fleet is stuck without reading logs.
	Err string `json:"last_error,omitempty"`
}

// ShardHealth is one shard's row in a sharded searcher's Health.
type ShardHealth struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
	Docs  int    `json:"docs"`
	Ready bool   `json:"ready"`
}

// Health reports the single engine's readiness: always Ready (an
// Engine holds exactly one live index by construction), at the
// current snapshot's epoch, with that index's resident bytes.
func (e *Engine) Health() Health {
	s := e.snap.Load()
	return Health{Ready: true, Epoch: s.epoch, Docs: s.idx.Docs(), ResidentBytes: s.idx.ResidentBytes()}
}
