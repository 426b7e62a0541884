package bestjoin

import (
	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/remote"
	"bestjoin/internal/shard"
)

// This file is the public surface of the retrieval-engine slice: the
// inverted-index substrate and the concurrent indexed query engine of
// internal/engine. Together with the join primitives in bestjoin.go
// this gives the full path from "query + corpus" to "ranked answers":
// index documents, compact, build an engine, Search.

// Index is an in-memory inverted index over tokenized documents; add
// documents with AddText, then Compact it for querying.
type Index = index.Index

// NewIndex returns an empty inverted index.
func NewIndex() *Index { return index.New() }

// CompactIndex is the compressed, read-only form of an Index — the
// representation a production system keeps on disk (Marshal /
// LoadCompactIndex) and queries through an Engine.
type CompactIndex = index.Compact

// LoadCompactIndex deserializes a CompactIndex.Marshal buffer,
// validating every posting list eagerly so corrupt or adversarial
// bytes fail here rather than at query time. Only the framed,
// checksummed layout is accepted: unframed input, a framed buffer
// carrying the retired section 2 or 3, and one repeating or misordering
// an entry fail with an ErrCorruptIndex-wrapped error naming what was
// seen.
func LoadCompactIndex(b []byte) (*CompactIndex, error) { return index.LoadCompact(b) }

// ErrCorruptIndex tags every corruption error from index loading —
// bad magic, truncation, checksum mismatch, or invalid postings.
// Test with errors.Is.
var ErrCorruptIndex = index.ErrCorrupt

// LoadCompactIndexFile reads and verifies an index file written by
// CompactIndex.SaveFile. Truncated or bit-rotted files fail with an
// error wrapping ErrCorruptIndex; they are never served as query data.
func LoadCompactIndexFile(path string) (*CompactIndex, error) { return index.LoadFile(path) }

// Concept is a scored disjunction of words: the specific terms whose
// inverted lists together form the match list of one general query
// term (the paper's footnote-1 construction), each with the score its
// occurrences carry.
type Concept = index.Concept

// Engine is a concurrent retrieval engine over a CompactIndex: it
// evaluates multi-concept queries document-at-a-time on parallel
// walkers over document-id ranges, keeps a global top-k heap, honors
// context deadlines (returning Partial results), and exposes counters
// and latency histograms via Stats.
//
// A concept is the query-time union of its member stems, whose
// postings the index decodes into plain arrays once, on each stem's
// first use; a document's concept match list is merged from them just
// before its join. See DESIGN.md "Per-stem arrays".
//
// The engine always prunes, and losslessly: candidates whose score
// upper bound (from each concept's exact maximum on the document) is
// strictly below the current top-k floor are skipped without running
// the join, with output guaranteed identical to an exhaustive ranking
// — see DESIGN.md "Score-upper-bound pruning".
type Engine = engine.Engine

// The engine degrades instead of dying under partial failure: kernel
// panics are isolated to single documents (Result.Degraded),
// MaxInFlight admission control bounds concurrency (ErrOverloaded),
// and SwapIndex hot-reloads the live index without draining queries.
// See DESIGN.md "Failure model & graceful degradation".

// EngineConfig sizes an Engine: worker count and the admission
// control knobs MaxInFlight and Overload.
type EngineConfig = engine.Config

// ErrOverloaded is returned by Engine.Search when admission control
// rejects the query; servers should map it to a retryable status.
var ErrOverloaded = engine.ErrOverloaded

// ErrQueryTooWide is returned by Engine.Search (and the sharded and
// remote tiers) for a query of more than 64 concepts, of more concepts
// than its kernel can join — more than 24 under a WIN JoinSpec — or
// with a concept of more than MaxConceptStems member words. Servers
// should map it to a client error.
var ErrQueryTooWide = engine.ErrQueryTooWide

// MaxConceptStems caps the member words of one query concept.
const MaxConceptStems = engine.MaxConceptStems

// OverloadPolicy selects what Search does at the MaxInFlight cap:
// block until the caller's context expires, or shed immediately.
type OverloadPolicy = engine.OverloadPolicy

const (
	// OverloadBlock waits for a free slot until the query's context is
	// done (the default policy).
	OverloadBlock = engine.OverloadBlock
	// OverloadShed fails fast with ErrOverloaded, never queueing.
	OverloadShed = engine.OverloadShed
)

// EngineQuery is one retrieval request: concepts, a kernel factory, K, and —
// for disjunctive retrieval — the query Mode and MinMatch threshold.
type EngineQuery = engine.Query

// QueryMode selects conjunctive (AND, every concept must match) or
// disjunctive (OR, ranked union) evaluation. Both run one WAND pivot
// walk, at m = n for AND; disjunctive queries support m-of-n thresholds
// through EngineQuery.MinMatch. See DESIGN.md "Disjunctive retrieval &
// WAND soundness" for the pruning-bound contract.
type QueryMode = engine.QueryMode

const (
	// ModeAND (the zero value) requires every concept to match (the
	// classic best-join).
	ModeAND = engine.ModeAND
	// ModeOR ranks the union of documents matching at least
	// EngineQuery.MinMatch concepts (1 when unset).
	ModeOR = engine.ModeOR
)

// EngineResult is a query's outcome: top-k documents plus the Partial
// flag and evaluation counts.
type EngineResult = engine.Result

// EngineStats is a snapshot of an Engine's observability counters.
type EngineStats = engine.Stats

// KernelFactory builds one reusable join kernel per engine worker;
// the worker reuses the kernel's scratch across every candidate
// document it evaluates. Adapt a one-shot function with JoinKernelFunc.
type KernelFactory = engine.KernelFactory

// NewEngine builds an engine over a compacted index.
func NewEngine(idx *CompactIndex, cfg EngineConfig) *Engine { return engine.New(idx, cfg) }

// Searcher is the serving contract shared by Engine and ShardedEngine:
// Search, Stats, zero-downtime SwapIndex, and Health. Servers written
// against it cannot tell a single engine from a remote fleet.
type Searcher = engine.Searcher

// EngineHealth is a Searcher's readiness snapshot: overall readiness,
// the current index epoch (incremented by every SwapIndex / completed
// rolling reload), the corpus size, and — for a sharded fleet — one
// row per shard.
type EngineHealth = engine.Health

// ShardHealth is one shard's row in EngineHealth.Shards.
type ShardHealth = engine.ShardHealth

// ShardedEngine is the coordinator NewRemoteFleet returns: it
// scatter-gathers queries over doc-partitioned shard processes and
// rank-merges their top-k heaps into the global answer — bitwise
// identical to a single Engine over the unsplit index — and rolls
// reloads across the fleet shard by shard. See DESIGN.md "Sharded
// scatter-gather tier" and "Remote shard tier".
type ShardedEngine = shard.Coordinator

// ShardedEngineConfig carries NewRemoteFleet's coordinator-level
// knob: quorum degraded mode.
type ShardedEngineConfig = shard.Config

// JoinSpec names a stock kernel declaratively — scoring family,
// decay rate, valid-matchset restriction — so a query can cross a
// process boundary: the remote tier serializes the spec instead of
// the Join closure and the serving side rebuilds an identical
// kernel. Set it on EngineQuery.Spec alongside (or instead of) Join.
type JoinSpec = engine.KernelSpec

// RemoteShard is an HTTP client for one shard process; it slots into
// a ShardedEngine as a child. See internal/remote for the robustness
// stack: per-attempt deadline budgets, retries with jittered backoff,
// a hedged duplicate after a fixed delay, and a circuit breaker.
type RemoteShard = remote.Shard

// RemoteShardConfig tunes a RemoteShard's robustness machinery.
type RemoteShardConfig = remote.ShardConfig

// NewRemoteShard builds a client for the shard process at base
// ("host:port" or a URL).
func NewRemoteShard(base string, cfg RemoteShardConfig) *RemoteShard {
	return remote.NewShard(base, cfg)
}

// RemoteServer exposes a Searcher as a shard process's HTTP API
// (/shardquery, /swapindex, /shardstats, /healthz).
type RemoteServer = remote.Server

// NewRemoteServer wraps a searcher for serving as a shard process.
func NewRemoteServer(s Searcher) *RemoteServer { return remote.NewServer(s) }

// NewRemoteFleet composes a ShardedEngine over remote shard processes
// at the given addresses: the networked scatter-gather tier, with the
// same rank-merge (bitwise identical to a single engine when all
// shards answer) plus quorum degraded mode via cfg.Quorum.
func NewRemoteFleet(addrs []string, scfg RemoteShardConfig, cfg ShardedEngineConfig) (*ShardedEngine, error) {
	return remote.NewFleet(addrs, scfg, cfg)
}

// JoinWIN builds a KernelFactory from a WIN scoring function.
func JoinWIN(fn WIN) KernelFactory { return engine.WINJoiner(fn) }

// JoinMED builds a KernelFactory from a MED scoring function.
func JoinMED(fn MED) KernelFactory { return engine.MEDJoiner(fn) }

// JoinMAX builds a KernelFactory from an efficient MAX scoring function.
func JoinMAX(fn EfficientMAX) KernelFactory { return engine.MAXJoiner(fn) }

// JoinValidWIN is JoinWIN restricted to valid matchsets (Section VI).
func JoinValidWIN(fn WIN) KernelFactory { return engine.ValidWINJoiner(fn) }

// JoinValidMED is JoinMED restricted to valid matchsets.
func JoinValidMED(fn MED) KernelFactory { return engine.ValidMEDJoiner(fn) }

// JoinValidMAX is JoinMAX restricted to valid matchsets.
func JoinValidMAX(fn EfficientMAX) KernelFactory { return engine.ValidMAXJoiner(fn) }
