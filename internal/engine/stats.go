package engine

import (
	"expvar"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Observability: lock-free counters incremented on the query hot path,
// a power-of-two latency histogram, and an expvar bridge. Everything
// is readable at any time via Engine.Stats without pausing queries.

// counters holds the engine's atomic event counters.
type counters struct {
	queries        atomic.Uint64
	docsEvaluated  atomic.Uint64
	joinsRun       atomic.Uint64
	kernelInvs     atomic.Uint64
	floorCutJoins  atomic.Uint64
	windowCutJoins atomic.Uint64
	dedupCapped    atomic.Uint64
	prunedDocs     atomic.Uint64
	deadlineHits   atomic.Uint64
	partials       atomic.Uint64
	// Robustness counters: recovered faults, degraded answers, load
	// shedding, and hot reloads. queueDepth is a gauge — jobs currently
	// sitting in worker queues — not a cumulative count.
	joinPanics     atomic.Uint64
	decodeFailures atomic.Uint64
	degraded       atomic.Uint64
	shed           atomic.Uint64
	indexReloads   atomic.Uint64
	queueDepth     atomic.Int64
	// Disjunctive (ranked-union) path: unionCandidates counts confirmed
	// pivots — documents verified to match at least MinMatch concepts —
	// and pivotSkips the subset whose aggregate union bound fell
	// strictly below the top-k floor, skipped before any match list was
	// assembled.
	pivotSkips      atomic.Uint64
	unionCandidates atomic.Uint64
	// unionUnpruned counts disjunctive queries a pruning engine had to
	// run exhaustively anyway — the kernel has no score cap, its
	// scoring function is not term-exchangeable (scorefn.Exchangeable:
	// the Weighted* families), or the cap panicked mid-walk. Still
	// correct, silently slower; the counter makes the degradation
	// visible.
	unionUnpruned atomic.Uint64
	// Auxiliary pair indexes (pairpath.go): pairHits counts pair-list
	// lookups that found a registered list; pairServed counts two-term
	// queries answered entirely off a pair list (no kernel joins).
	pairHits   atomic.Uint64
	pairServed atomic.Uint64
}

// histBuckets is the number of latency buckets: bucket i counts
// queries with latency in [2^(i−1), 2^i) microseconds (bucket 0 is
// < 1µs), and the last bucket absorbs everything from ~1s up.
const histBuckets = 22

// histogram is a fixed-bucket power-of-two latency histogram safe for
// concurrent observation.
type histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64 // total observed time in microseconds
}

func (h *histogram) observe(d time.Duration) {
	micros := d.Microseconds()
	if micros < 0 {
		micros = 0
	}
	idx := bits.Len64(uint64(micros))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.counts[idx].Add(1)
	h.sum.Add(micros)
}

// LatencyBucket is one row of a latency histogram snapshot.
type LatencyBucket struct {
	// UpperMicros is the exclusive upper bound of the bucket in
	// microseconds; 0 marks the unbounded overflow bucket.
	UpperMicros uint64
	Count       uint64
}

// LatencyHistogram is a point-in-time latency distribution.
type LatencyHistogram struct {
	Count      uint64 // total observations
	MeanMicros float64
	Buckets    []LatencyBucket // only non-empty buckets, ascending
}

func (h *histogram) snapshot() LatencyHistogram {
	var out LatencyHistogram
	for i := 0; i < histBuckets; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		out.Count += n
		upper := uint64(1) << i
		if i == histBuckets-1 {
			upper = 0 // overflow bucket
		}
		out.Buckets = append(out.Buckets, LatencyBucket{UpperMicros: upper, Count: n})
	}
	if out.Count > 0 {
		out.MeanMicros = float64(h.sum.Load()) / float64(out.Count)
	}
	return out
}

// Stats is a point-in-time snapshot of the engine's observability
// surface. All fields are cumulative since the engine was created; the
// struct marshals to JSON, which is what the expvar bridge publishes.
type Stats struct {
	Queries       uint64 // Search calls
	DocsEvaluated uint64 // candidate documents actually joined
	JoinsRun      uint64 // best-join invocations
	// KernelInvocations sums, over the joins that ran a valid-matchset
	// (dedup-wrapped) kernel, how many times the duplicate-unaware
	// inner kernel ran — one per join whose optimum reuses no token,
	// more when the Section VI search has to split. Over JoinsRun it is
	// the paper's Figure 8 quantity, the number that says how much of a
	// deployment's join time is duplicate avoidance. Unwrapped kernels
	// add nothing. The kernel floor ends searches early against a floor
	// that rises with the worker schedule, so with pruning on and
	// several workers the count is schedule-dependent, like PrunedDocs.
	KernelInvocations uint64
	// FloorCutJoins counts joins a floor-aware kernel (join.Floored)
	// ended at their first run because nothing in the document could
	// reach the top-k floor: a valid-matchset search whose
	// duplicate-unaware optimum came out strictly below it, or — the
	// WindowCutJoins among them — a WIN or MED run the window screen
	// stopped before its dynamic program, wrapped or not. Both still
	// count in JoinsRun and DocsEvaluated. DedupCapped counts joins
	// whose search hit dedup.MaxInvocations; those documents are left
	// unevaluated and the result is Partial.
	FloorCutJoins  uint64
	WindowCutJoins uint64
	DedupCapped    uint64
	// PrunedDocs counts candidate documents skipped because their
	// score upper bound was strictly below the top-k floor — joins
	// that never ran. The bound is the candidate's per-list maxima (each
	// concept's exact maximum on the document), or the cache rung's, at
	// dispatch or at the worker: its lists' signatures put every window
	// past the kernel's cut width (a document the window screen would
	// otherwise have cut). PrunedFraction is PrunedDocs over all
	// candidates that reached the prune-or-join decision (0 when none
	// have).
	PrunedDocs     uint64
	PrunedFraction float64
	// ListHits and ListMisses have read 0 since the list cache was
	// deleted; the load harness under bench/ still reads them.
	ListHits       uint64
	ListMisses     uint64
	DeadlineHits   uint64 // queries cut short by a context deadline
	PartialResults uint64 // queries returning Partial results
	// Robustness surface. JoinPanics counts kernel (and kernel-factory)
	// panics recovered by the panic-isolation layer; DecodeFailures
	// counts concept resolutions whose stem postings would not decode,
	// and corrupt pair lists; DegradedResults
	// counts queries that returned with Result.Degraded set. Shed counts
	// queries rejected by admission control (ErrOverloaded). InFlight
	// and QueueDepth are gauges: queries currently admitted, and jobs
	// currently queued for join workers.
	JoinPanics      uint64
	DecodeFailures  uint64
	DegradedResults uint64
	Shed            uint64
	IndexReloads    uint64 // SwapIndex hot reloads since creation
	InFlight        int
	QueueDepth      int
	// BlockDecodes, BlocksSkipped and CoalescedDecodes have read 0 since
	// the block codec, its list cache and decode coalescing were
	// deleted; the load harness under bench/ still reads them.
	BlockDecodes     uint64
	BlocksSkipped    uint64
	CoalescedDecodes uint64
	// Disjunctive (ranked-union) path. UnionCandidates counts confirmed
	// WAND pivots — documents verified to match at least MinMatch
	// concepts; PivotSkips counts the subset skipped because their
	// aggregate union bound fell strictly below the top-k floor, before
	// any match list was assembled.
	UnionCandidates uint64
	PivotSkips      uint64
	// UnionUnpruned counts disjunctive queries a pruning engine ran
	// exhaustively because no sound bound was available — correct
	// results, silently degraded latency. A non-zero value usually
	// means the deployed kernel has no cap (join.UpperBounded), or its
	// scoring function is not term-exchangeable, as the Weighted*
	// families are not.
	UnionUnpruned uint64
	// Auxiliary pair indexes (pairpath.go). PairHits counts pair-list
	// lookups that found a registered list; PairServed counts two-term
	// conjunctive queries answered entirely off a precomputed pair list
	// (zero kernel joins). PairBoundPrunes is always 0: pair lists no
	// longer bound wider queries. The field stays while the load
	// harness under bench/ reads it.
	PairHits        uint64
	PairServed      uint64
	PairBoundPrunes uint64
	QueryLatency    LatencyHistogram
	// Sharded serving (internal/shard). ShardQueries counts child
	// engine searches issued by a coordinator (N per coordinator
	// query); MergedCandidates counts per-shard result rows entering
	// the coordinator's rank-merge. Shards holds each child engine's
	// own Stats, in shard order. All three are zero/empty on a plain
	// Engine.
	ShardQueries     uint64  `json:",omitempty"`
	MergedCandidates uint64  `json:",omitempty"`
	Shards           []Stats `json:",omitempty"`
	// Remote shard tier (internal/remote). Hedged counts duplicate
	// requests launched because a shard call outlived its hedging
	// delay (ShardConfig.HedgeAfter); Retried counts
	// re-attempts after a retryable transport failure; ShardTimeouts
	// counts attempts cut by the per-attempt deadline budget;
	// BreakerOpen counts searches rejected immediately because a
	// shard's circuit breaker was open. All zero on local serving.
	Hedged        uint64 `json:",omitempty"`
	Retried       uint64 `json:",omitempty"`
	ShardTimeouts uint64 `json:",omitempty"`
	BreakerOpen   uint64 `json:",omitempty"`
	// Quorum degraded mode (internal/shard). QuorumDegraded counts
	// coordinator queries answered by a partial fleet — at least
	// Config.Quorum shards responded, the rest were dropped from the
	// merge; ShardFailures counts the dropped shard answers themselves.
	QuorumDegraded uint64 `json:",omitempty"`
	ShardFailures  uint64 `json:",omitempty"`
}

// Stats returns a consistent-enough snapshot of the engine's counters.
// Counters are read individually without a global lock, so a snapshot
// taken during a query may be mid-update by one event; totals are
// still monotonic.
func (e *Engine) Stats() Stats {
	pruned := e.counters.prunedDocs.Load()
	evaluated := e.counters.docsEvaluated.Load()
	fraction := 0.0
	if pruned+evaluated > 0 {
		fraction = float64(pruned) / float64(pruned+evaluated)
	}
	return Stats{
		Queries:         e.counters.queries.Load(),
		DocsEvaluated:   evaluated,
		JoinsRun:        e.counters.joinsRun.Load(),
		PrunedDocs:      pruned,
		PrunedFraction:  fraction,
		DeadlineHits:    e.counters.deadlineHits.Load(),
		PartialResults:  e.counters.partials.Load(),
		JoinPanics:      e.counters.joinPanics.Load(),
		DecodeFailures:  e.counters.decodeFailures.Load(),
		DegradedResults: e.counters.degraded.Load(),
		Shed:            e.counters.shed.Load(),
		IndexReloads:    e.counters.indexReloads.Load(),
		InFlight:        e.admit.inFlight(),
		QueueDepth:      int(e.counters.queueDepth.Load()),
		UnionCandidates: e.counters.unionCandidates.Load(),
		PivotSkips:      e.counters.pivotSkips.Load(),
		UnionUnpruned:   e.counters.unionUnpruned.Load(),
		PairHits:        e.counters.pairHits.Load(),
		PairServed:      e.counters.pairServed.Load(),
		QueryLatency:    e.latency.snapshot(),

		KernelInvocations: e.counters.kernelInvs.Load(),
		FloorCutJoins:     e.counters.floorCutJoins.Load(),
		WindowCutJoins:    e.counters.windowCutJoins.Load(),
		DedupCapped:       e.counters.dedupCapped.Load(),
	}
}

// expvarMu serializes Publish calls: expvar panics on duplicate names,
// so we check-then-publish under a package lock.
var expvarMu sync.Mutex

// PublishFunc exposes a Stats source as an expvar variable under the
// given name, making it visible at /debug/vars on any server importing
// net/http/pprof or expvar. Publishing the same name twice — by any
// mix of engines and coordinators — returns an error instead of
// panicking. Engine.Publish and shard.Coordinator.Publish both route
// through here so they share the duplicate-name guard.
func PublishFunc(name string, stats func() Stats) error {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return fmt.Errorf("engine: expvar %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return stats() }))
	return nil
}

// Publish exposes the engine's Stats snapshot as an expvar variable
// under the given name (conventionally "bestjoin.engine"); see
// PublishFunc.
func (e *Engine) Publish(name string) error {
	return PublishFunc(name, e.Stats)
}
