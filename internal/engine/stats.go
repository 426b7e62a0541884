package engine

import (
	"expvar"
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Observability: one Tally of counters per query, added with the
// query's latency to the engine's total when the query finishes; a
// power-of-two latency histogram; and an expvar bridge.

// Tally is the engine's counter set: every cumulative count Stats
// reports. A query counts into its own Tally; each of its walkers
// counts into a plain local one, added to the query's once, when the
// walker exits. Add is the only place the set is listed.
type Tally struct {
	Queries       uint64 // admitted Search calls, counted as they finish
	DocsEvaluated uint64 // candidate documents actually joined
	JoinsRun      uint64 // best-join invocations
	// KernelInvocations sums, over the joins that ran a valid-matchset
	// (dedup-wrapped) kernel, how many times the duplicate-unaware
	// inner kernel ran — one per join whose optimum reuses no token,
	// more when the Section VI search has to split. Over JoinsRun it is
	// the paper's Figure 8 quantity, the number that says how much of a
	// deployment's join time is duplicate avoidance. Unwrapped kernels
	// add nothing. The kernel floor ends searches early against a floor
	// that rises with the walker schedule, so with several walkers the
	// count is schedule-dependent, like PrunedDocs.
	KernelInvocations uint64
	// FloorCutJoins counts joins a floor-aware kernel (join.Floored)
	// ended at their first run because nothing in the document could
	// reach the top-k floor: a valid-matchset search whose
	// duplicate-unaware optimum came out strictly below it, or — the
	// WindowCutJoins among them — a WIN or MED run the window screen
	// stopped, before its dynamic program or after it ran on the lists
	// the screen trimmed, wrapped or not. Both still
	// count in JoinsRun and DocsEvaluated. DedupCapped counts joins
	// whose search hit dedup.MaxInvocations; those documents are left
	// unevaluated and the result is Partial.
	FloorCutJoins  uint64
	WindowCutJoins uint64
	DedupCapped    uint64
	// PrunedDocs counts candidate documents skipped because their
	// score upper bound was strictly below the top-k floor — joins
	// that never ran. The bound is the candidate's per-list maxima (each
	// concept's exact maximum on the document), or the cache rung's: its
	// lists' signatures put every window past the kernel's cut width (a
	// document the window screen would otherwise have cut).
	PrunedDocs     uint64
	DeadlineHits   uint64 // queries cut short by a context deadline
	PartialResults uint64 // queries returning Partial results
	// Robustness surface. JoinPanics counts kernel (and kernel-factory)
	// panics recovered by the panic-isolation layer; DecodeFailures
	// counts concept resolutions whose stem postings would not decode;
	// DegradedResults counts queries that returned with Result.Degraded
	// set. Shed counts queries rejected by admission control
	// (ErrOverloaded).
	JoinPanics      uint64
	DecodeFailures  uint64
	DegradedResults uint64
	Shed            uint64
	IndexReloads    uint64 // SwapIndex hot reloads since creation
	// The candidate walk, which every query runs — AND, OR and m-of-n
	// alike; the names date from when only disjunctive queries took it.
	// UnionCandidates counts confirmed pivots — documents verified to
	// match at least MinMatch concepts; PivotSkips counts the subset
	// skipped because their score bound fell strictly below the top-k
	// floor, before any match list was assembled.
	UnionCandidates uint64
	PivotSkips      uint64
	// UnionUnpruned counts queries the engine walked exhaustively
	// because no sound bound was available — correct results, silently
	// degraded latency. A non-zero value usually means the deployed
	// kernel has no cap (join.UpperBounded), or a disjunctive query's
	// scoring function is not term-exchangeable, as the Weighted*
	// families are not: such a walk runs exhaustively from its first
	// pivot matching more than m concepts (a pivot matching exactly m,
	// every pivot at m = n, takes the conjunctive cap).
	UnionUnpruned uint64
	// Sharded serving (internal/shard). ShardQueries counts child
	// engine searches issued by a coordinator (N per coordinator
	// query); MergedCandidates counts per-shard result rows entering
	// the coordinator's rank-merge. Both zero on a plain Engine.
	ShardQueries     uint64 `json:",omitempty"`
	MergedCandidates uint64 `json:",omitempty"`
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

// Add adds every counter of o to t.
func (t *Tally) Add(o Tally) {
	t.Queries += o.Queries
	t.DocsEvaluated += o.DocsEvaluated
	t.JoinsRun += o.JoinsRun
	t.KernelInvocations += o.KernelInvocations
	t.FloorCutJoins += o.FloorCutJoins
	t.WindowCutJoins += o.WindowCutJoins
	t.DedupCapped += o.DedupCapped
	t.PrunedDocs += o.PrunedDocs
	t.DeadlineHits += o.DeadlineHits
	t.PartialResults += o.PartialResults
	t.JoinPanics += o.JoinPanics
	t.DecodeFailures += o.DecodeFailures
	t.DegradedResults += o.DegradedResults
	t.Shed += o.Shed
	t.IndexReloads += o.IndexReloads
	t.UnionCandidates += o.UnionCandidates
	t.PivotSkips += o.PivotSkips
	t.UnionUnpruned += o.UnionUnpruned
	t.ShardQueries += o.ShardQueries
	t.MergedCandidates += o.MergedCandidates
	t.Hedged += o.Hedged
	t.Retried += o.Retried
	t.ShardTimeouts += o.ShardTimeouts
	t.BreakerOpen += o.BreakerOpen
	t.QuorumDegraded += o.QuorumDegraded
	t.ShardFailures += o.ShardFailures
}

// histBuckets is the number of latency buckets: bucket i counts
// queries with latency in [2^(i−1), 2^i) microseconds (bucket 0 is
// < 1µs), and the last bucket absorbs everything from ~1s up.
const histBuckets = 22

// histogram is a fixed-bucket power-of-two latency histogram; the
// engine's is guarded by the lock its total takes.
type histogram struct {
	counts [histBuckets]uint64
	sum    int64 // total observed time in microseconds
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
	h.counts[idx]++
	h.sum += micros
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
		n := h.counts[i]
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
		out.MeanMicros = float64(h.sum) / float64(out.Count)
	}
	return out
}

// Stats is a point-in-time snapshot of the engine's observability
// surface. The Tally's counters and QueryLatency are cumulative since
// the engine was created; the struct marshals to JSON, which is what
// the expvar bridge publishes.
type Stats struct {
	Tally
	// PrunedFraction is PrunedDocs over all candidates that reached the
	// prune-or-join decision (0 when none have).
	PrunedFraction float64
	// InFlight is a gauge: queries currently admitted.
	InFlight int
	// ListHits, ListMisses, BlockDecodes, BlocksSkipped and
	// CoalescedDecodes have read 0 since the list cache, the block codec
	// and decode coalescing were deleted, PairBoundPrunes since pair
	// lists stopped bounding wider queries, and PairServed since no
	// query is served from a pair list.
	//
	// Deprecated: kept for bench/ only; goes with ROADMAP item 1.
	ListHits         uint64
	ListMisses       uint64
	BlockDecodes     uint64
	BlocksSkipped    uint64
	CoalescedDecodes uint64
	PairBoundPrunes  uint64
	PairServed       uint64
	QueryLatency     LatencyHistogram
	// Shards holds each child engine's own Stats, in shard order, on a
	// coordinator's roll-up (internal/shard); empty on a plain Engine.
	Shards []Stats `json:",omitempty"`
}

// Stats returns a snapshot of the engine's counts. A query is
// counted when it finishes, all its counters and its latency at once,
// so a snapshot taken while queries run holds each of them entirely or
// not at all: Queries always equals QueryLatency.Count. The gauge is
// read on its own.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{Tally: e.total, QueryLatency: e.latency.snapshot()}
	e.mu.Unlock()
	s.InFlight = e.admit.inFlight()
	if n := s.PrunedDocs + s.DocsEvaluated; n > 0 {
		s.PrunedFraction = float64(s.PrunedDocs) / float64(n)
	}
	return s
}

// count adds a tally of events outside any query (a shed query, an
// index swap) to the engine's total.
func (e *Engine) count(t Tally) {
	e.mu.Lock()
	e.total.Add(t)
	e.mu.Unlock()
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
