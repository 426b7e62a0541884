// Package shard is the scatter-gather serving tier: a Coordinator
// implements engine.Searcher over N doc-partitioned children —
// in-process child engines, or (via internal/remote) shard processes
// across a network — nailing the merge semantics any multi-process
// scale-out needs.
//
// The paper's best-join scoring is document-local, so splitting the
// corpus by document (index.Compact.Partition) is lossless by
// construction; merging per-shard top-k heaps back into a global k is
// the sorted-access half of Fagin's threshold aggregation, the same
// framework the engine's WAND union already leans on. Three
// mechanisms make the sharded answer bitwise identical to the single
// engine's:
//
//   - Rank merge with the engine's exact ordering. Every shard
//     returns its Docs sorted by (score descending, document id
//     ascending); the coordinator k-way-merges those streams under
//     the same comparator, so the merged top-k — order, scores,
//     matchsets, ids — is what one engine over the unsplit index
//     would return. Shards keep global document ids (the partitioner
//     never renumbers), which is what makes the tie-break rule mean
//     the same thing on every shard.
//   - A shared pruning floor (engine.GlobalFloor via Query.Floor).
//     Each shard publishes its local k-th-best kept score and prunes
//     against the fleet-wide maximum, so block-max/WAND pruning still
//     bites across the partition: a strong document found on one
//     shard stops weak candidates everywhere. Soundness: a shard's
//     k-th-best kept score is witnessed by k real documents, so the
//     global k-th best is at least that high, and pruning stays
//     strictly-below — equal-scoring documents survive for the
//     merge's doc-id tie-break. The floor is a perf channel only:
//     remote children that cannot share it (each rebuilds a local
//     floor from the wire snapshot) prune less but score identically.
//   - Pinned answers. A query pins every child up front (Child.Pin:
//     for local engines a pinned snapshot, for remote shards the
//     client call), and rolling reloads flip the pinned vector
//     atomically only after every child has swapped — so a query
//     through local children never sees two index generations, even
//     mid-roll. Remote children pin per process, a weaker guarantee:
//     mid-roll, different shards may serve different epochs, which is
//     still sound per document (doc-partitioning means each document
//     is scored entirely by one shard) but is why Health refuses to
//     report a mixed-epoch fleet as ready.
//
// Quorum degraded mode (Config.Quorum) trades completeness for
// availability: when at least M of N shards answer, the coordinator
// merges the survivors and flags the Result Degraded with
// FailedShards set. The partial answer is a sound subset — every
// returned document carries its true score and matchset (computed
// wholly on its home shard), and the relative order matches the full
// fleet's — it just may miss documents homed on the failed shards.
//
// Admission control is per shard: every child keeps its own
// MaxInFlight gate (engine.Config), so a coordinator query admits on
// all N shards or fails with ErrOverloaded like any other query.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
)

// SearchFunc evaluates one query against one pinned shard.
type SearchFunc func(ctx context.Context, q engine.Query) (*engine.Result, error)

// Child is one shard under a Coordinator — a local engine
// (localChild) or a remote shard process (internal/remote.Shard). The
// contract mirrors engine.Searcher with two deviations: Pin returns a
// search function bound to the child's current index generation (the
// coordinator pins all children together and publishes the vector
// atomically), and SwapIndex reports failure instead of being
// infallible, because a swap over the network can lose.
type Child interface {
	// Pin binds a search function to the child's current index
	// generation. Local children pin a snapshot; remote children
	// cannot pin across processes and return their plain client call.
	Pin() SearchFunc
	// SwapIndex hot-reloads the child onto the given partition.
	SwapIndex(idx *index.Compact) error
	// Stats snapshots the child's counters (see engine.Searcher).
	Stats() engine.Stats
	// Health reports the child's readiness (see engine.Searcher).
	Health() engine.Health
}

// localChild adapts an in-process engine to the Child contract.
type localChild struct{ eng *engine.Engine }

func (lc localChild) Pin() SearchFunc {
	snap := lc.eng.Snapshot()
	return func(ctx context.Context, q engine.Query) (*engine.Result, error) {
		return lc.eng.SearchSnapshot(ctx, q, snap)
	}
}

func (lc localChild) SwapIndex(idx *index.Compact) error {
	lc.eng.SwapIndex(idx)
	return nil
}

func (lc localChild) Stats() engine.Stats   { return lc.eng.Stats() }
func (lc localChild) Health() engine.Health { return lc.eng.Health() }

// Config sizes a Coordinator.
type Config struct {
	// Shards is the number of doc-partitioned child engines; ≤ 0
	// means 1. Ignored by NewFromChildren (the children are given).
	Shards int
	// Engine configures every child engine identically — worker
	// count, caches, pruning, and the per-shard admission gate.
	// Ignored by NewFromChildren.
	Engine engine.Config
	// Quorum is the minimum number of shards that must answer for a
	// query to succeed. 0 (the default) means all shards — any shard
	// failure fails the query, the strict mode local fleets want.
	// Setting 1 ≤ Quorum < Shards arms degraded mode: when at least
	// Quorum shards answer, the survivors are merged into a sound
	// partial answer flagged Degraded with FailedShards set.
	Quorum int
	// RollHealthTimeout bounds how long a rolling reload waits for
	// each freshly-swapped child to report Ready before aborting the
	// roll (generation not advanced; Health carries the error).
	// 0 means 5s.
	RollHealthTimeout time.Duration
	// RollPoll is the health-poll interval during a rolling reload.
	// 0 means 5ms.
	RollPoll time.Duration
}

// Coordinator scatter-gathers queries over N doc-partitioned
// children. It implements engine.Searcher, so servers cannot tell it
// from a single engine. Safe for concurrent use.
type Coordinator struct {
	children []Child
	quorum   int
	rollWait time.Duration
	rollPoll time.Duration
	gen      atomic.Pointer[generation]
	// swapMu serializes rolling reloads; queries never take it.
	swapMu sync.Mutex
	// rollMu guards lastRollErr, the sticky record of the most recent
	// rolling reload's outcome surfaced through Health.
	rollMu      sync.Mutex
	lastRollErr string
	// rollHook, when set (tests only), runs after each child swap
	// during SwapIndex — the seam that widens the mid-roll window the
	// rolling-reload tests probe.
	rollHook func(shard int)

	queries          atomic.Uint64
	shardQueries     atomic.Uint64
	mergedCandidates atomic.Uint64
	quorumDegraded   atomic.Uint64
	shardFailures    atomic.Uint64
}

// generation is one atomically-published index generation: the pinned
// search function of every child, each child's own epoch as observed
// at pin time, plus the coordinator's epoch (one per completed
// rolling reload). Queries load a generation once and use its pinned
// functions throughout, so a reload mid-query — or mid-roll — can
// never mix epochs inside one answer served by local children. The
// recorded child epochs are Health's baseline: a child whose current
// epoch differs from its pinned one is mid-roll (or rolled without
// the coordinator, or restarted onto different content) and makes
// the fleet not-ready.
type generation struct {
	search []SearchFunc
	epochs []uint64
	epoch  uint64
}

// Coordinator implements the same Searcher contract as Engine.
var _ engine.Searcher = (*Coordinator)(nil)

// New partitions the index into cfg.Shards doc-partitioned pieces and
// builds one child engine per piece. The error surface is
// index.Compact.Partition's: invalid shard counts and corrupt
// in-memory buffers.
func New(idx *index.Compact, cfg Config) (*Coordinator, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	parts, err := idx.Partition(n)
	if err != nil {
		return nil, err
	}
	children := make([]Child, n)
	for i, p := range parts {
		children[i] = localChild{eng: engine.New(p, cfg.Engine)}
	}
	return NewFromChildren(children, cfg)
}

// NewFromChildren builds a Coordinator over pre-built children —
// the constructor the remote tier uses to compose a fleet of shard
// processes under the unchanged scatter-gather. cfg.Shards and
// cfg.Engine are ignored (the children already exist); cfg.Quorum
// must be 0 (strict: all shards) or in [1, len(children)].
func NewFromChildren(children []Child, cfg Config) (*Coordinator, error) {
	if len(children) == 0 {
		return nil, errors.New("shard: no children")
	}
	q := cfg.Quorum
	if q == 0 {
		q = len(children)
	}
	if q < 0 || q > len(children) {
		return nil, fmt.Errorf("shard: quorum %d out of range [1, %d]", cfg.Quorum, len(children))
	}
	wait := cfg.RollHealthTimeout
	if wait <= 0 {
		wait = 5 * time.Second
	}
	poll := cfg.RollPoll
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	c := &Coordinator{children: children, quorum: q, rollWait: wait, rollPoll: poll}
	fns, epochs := pinAll(children)
	c.gen.Store(&generation{search: fns, epochs: epochs})
	return c, nil
}

// pinAll pins every child at its current generation, recording the
// child epochs the pin observed.
func pinAll(children []Child) ([]SearchFunc, []uint64) {
	fns := make([]SearchFunc, len(children))
	epochs := make([]uint64, len(children))
	for i, ch := range children {
		fns[i] = ch.Pin()
		epochs[i] = ch.Health().Epoch
	}
	return fns, epochs
}

// Shards returns the number of children.
func (c *Coordinator) Shards() int { return len(c.children) }

// Search scatters the query to every shard under one pinned
// generation and one shared pruning floor, then rank-merges the
// per-shard top-k heaps into the global k. With a full fleet the
// merged answer is bitwise identical to a single engine over the
// unsplit index (the package comment gives the argument; the
// differential suite the proof). Counts roll up:
// Candidates/Evaluated/Pruned/Failed are summed and Partial/Degraded
// OR-ed across shards. In quorum mode a partial fleet still answers:
// the survivors merge into a sound subset flagged Degraded.
func (c *Coordinator) Search(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if err := q.CheckWidth(); err != nil {
		return nil, err // once here, not once per shard
	}
	if q.K > engine.MaxK {
		return nil, fmt.Errorf("shard: K %d out of range [0, %d]", q.K, engine.MaxK)
	}
	start := time.Now()
	k := q.K
	if k <= 0 {
		k = engine.DefaultK
	}
	if q.Floor == nil {
		// One floor for the whole scatter; a caller-supplied floor is
		// honored so fleets of coordinators could share one too.
		q.Floor = engine.NewGlobalFloor()
	}
	gen := c.gen.Load()
	n := len(c.children)
	c.queries.Add(1)
	c.shardQueries.Add(uint64(n))

	// Scatter. A shard failure cancels the rest only once it makes
	// quorum unreachable — before that the fleet keeps working toward
	// a degraded answer (with Quorum = N, the default, the first
	// failure cancels immediately, the strict historical behavior).
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*engine.Result, n)
	errs := make([]error, n)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for i := range gen.search {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = gen.search[i](sctx, q)
			if errs[i] != nil && int(failed.Add(1)) > n-c.quorum {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	ok := 0
	for i := range errs {
		if errs[i] == nil && results[i] != nil {
			ok++
		}
	}
	if ok < c.quorum || ok == 0 {
		return nil, firstError(errs)
	}
	res := c.merge(results, k, start)
	if ok < n {
		res.Degraded = true
		res.FailedShards = n - ok
		c.quorumDegraded.Add(1)
		c.shardFailures.Add(uint64(n - ok))
	}
	return res, nil
}

// firstError picks the error to surface deterministically: the
// lowest-indexed non-overload error when one exists (a validation
// error is the same on every shard; an overload error on another
// shard may just be fallout of this one's cancellation), else the
// lowest-indexed error.
func firstError(errs []error) error {
	var overload error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, engine.ErrOverloaded) {
			return err
		}
		if overload == nil {
			overload = err
		}
	}
	return overload
}

// merge rank-merges the per-shard results: a k-way merge over the
// shards' already-sorted Docs under the engine's exact comparator —
// score descending, document id ascending on ties — taking the first
// k rows. Counts sum; flags OR. Nil entries (shards dropped by quorum
// mode) are skipped.
func (c *Coordinator) merge(results []*engine.Result, k int, start time.Time) *engine.Result {
	merged := &engine.Result{Docs: make([]engine.DocResult, 0, k)}
	heads := make([]int, len(results))
	entering := 0
	for _, r := range results {
		if r == nil {
			continue
		}
		merged.Candidates += r.Candidates
		merged.Evaluated += r.Evaluated
		merged.Pruned += r.Pruned
		merged.Failed += r.Failed
		merged.Partial = merged.Partial || r.Partial
		merged.Degraded = merged.Degraded || r.Degraded
		entering += len(r.Docs)
	}
	c.mergedCandidates.Add(uint64(entering))
	for len(merged.Docs) < k {
		best := -1
		for s, r := range results {
			if r == nil || heads[s] == len(r.Docs) {
				continue
			}
			if best < 0 {
				best = s
				continue
			}
			a, b := r.Docs[heads[s]], results[best].Docs[heads[best]]
			if a.Score > b.Score || (a.Score == b.Score && a.Doc < b.Doc) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		merged.Docs = append(merged.Docs, results[best].Docs[heads[best]])
		heads[best]++
	}
	merged.Elapsed = time.Since(start)
	return merged
}

// SwapIndex hot-reloads the whole fleet with zero downtime: the new
// index is partitioned, each child swaps one at a time, and the roll
// pauses after each swap until that child reports Ready again (the
// health gate — bounded by Config.RollHealthTimeout). Only after
// every child is on the new index and healthy does the coordinator
// atomically publish the new generation; an unhealthy or failing
// child aborts the roll instead, leaving the generation unflipped and
// the failure visible through Health. Queries admitted mid-roll keep
// using the old generation's pinned searches — child SwapIndex never
// invalidates outstanding snapshots, and the caches are epoch-keyed —
// so through local children no query ever observes a mixed-epoch
// answer and none fail. Rolls serialize; queries are never blocked.
//
// Partition errors are impossible for an index built or loaded by
// internal/index (both validate eagerly), so like Compact.Postings
// this path treats one as memory corruption and fails loudly.
func (c *Coordinator) SwapIndex(idx *index.Compact) {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	parts, err := idx.Partition(len(c.children))
	if err != nil {
		panic(fmt.Sprintf("shard: re-partition for reload: %v", err))
	}
	for i, child := range c.children {
		if err := child.SwapIndex(parts[i]); err != nil {
			c.setRollErr(fmt.Errorf("shard %d swap failed: %w", i, err))
			return
		}
		if h := c.rollHook; h != nil {
			h(i)
		}
		if err := c.awaitHealthy(i, child); err != nil {
			c.setRollErr(err)
			return
		}
	}
	c.setRollErr(nil)
	old := c.gen.Load()
	fns, epochs := pinAll(c.children)
	c.gen.Store(&generation{search: fns, epochs: epochs, epoch: old.epoch + 1})
}

// awaitHealthy polls one freshly-swapped child until it reports Ready
// or the roll-health timeout elapses — the pause-on-unhealthy gate
// that keeps a rolling reload from marching past a shard that came
// back broken.
func (c *Coordinator) awaitHealthy(i int, child Child) error {
	deadline := time.Now().Add(c.rollWait)
	for {
		if child.Health().Ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard %d not ready %v after swap; roll aborted", i, c.rollWait)
		}
		time.Sleep(c.rollPoll)
	}
}

// setRollErr records the outcome of the most recent rolling reload
// (nil clears it); Health surfaces the record.
func (c *Coordinator) setRollErr(err error) {
	c.rollMu.Lock()
	defer c.rollMu.Unlock()
	if err == nil {
		c.lastRollErr = ""
	} else {
		c.lastRollErr = err.Error()
	}
}

// rollErr returns the last rolling reload's recorded failure, or "".
func (c *Coordinator) rollErr() string {
	c.rollMu.Lock()
	defer c.rollMu.Unlock()
	return c.lastRollErr
}

// Health reports fleet readiness: the coordinator's generation epoch
// plus one row per shard (each child's own reload epoch and
// readiness). Docs is the global corpus size — every shard keeps the
// global id space, so any child reports it. A fleet is mixed-epoch —
// and never reported Ready — when any child's current epoch differs
// from the epoch the published generation pinned it at: that is a
// roll in progress, a roll stuck half-done, or a shard that moved
// under the coordinator, and remote children cannot pin across
// processes, so such a fleet could merge answers from two index
// generations. Err carries the last rolling reload's failure, if
// any; a recorded failure does not by itself clear Ready — a fleet
// stuck on the old generation is stale but still serving.
func (c *Coordinator) Health() engine.Health {
	gen := c.gen.Load()
	h := engine.Health{Ready: true, Epoch: gen.epoch, Err: c.rollErr()}
	for i, child := range c.children {
		ch := child.Health()
		h.Shards = append(h.Shards, engine.ShardHealth{Shard: i, Epoch: ch.Epoch, Docs: ch.Docs, Ready: ch.Ready})
		h.Ready = h.Ready && ch.Ready
		h.Docs = ch.Docs
		if i < len(gen.epochs) && ch.Epoch != gen.epochs[i] {
			h.Ready = false
		}
	}
	return h
}

// Stats rolls the fleet up into one engine.Stats: child counters are
// summed field by field (so DegradedResults, PartialResults, and
// DeadlineHits count per-shard events — one coordinator query can
// tick a counter up to N times), latency histograms are merged,
// PrunedFraction is recomputed over the summed counts, and the
// coordinator's own counters fill Queries, ShardQueries,
// MergedCandidates, QuorumDegraded, and ShardFailures. Remote
// children contribute their client-side robustness counters (Hedged,
// Retried, ShardTimeouts, BreakerOpen) to the rollup. Each child's
// unmodified Stats rides along in Shards, in shard order.
func (c *Coordinator) Stats() engine.Stats {
	agg := engine.Stats{
		Queries:          c.queries.Load(),
		ShardQueries:     c.shardQueries.Load(),
		MergedCandidates: c.mergedCandidates.Load(),
		QuorumDegraded:   c.quorumDegraded.Load(),
		ShardFailures:    c.shardFailures.Load(),
	}
	shards := make([]engine.Stats, len(c.children))
	hists := make([]engine.LatencyHistogram, len(c.children))
	for i, child := range c.children {
		s := child.Stats()
		shards[i] = s
		hists[i] = s.QueryLatency
		agg.DocsEvaluated += s.DocsEvaluated
		agg.JoinsRun += s.JoinsRun
		agg.KernelInvocations += s.KernelInvocations
		agg.FloorCutJoins += s.FloorCutJoins
		agg.WindowCutJoins += s.WindowCutJoins
		agg.DedupCapped += s.DedupCapped
		agg.PrunedDocs += s.PrunedDocs
		agg.ConceptHits += s.ConceptHits
		agg.ConceptMisses += s.ConceptMisses
		agg.ListHits += s.ListHits
		agg.ListMisses += s.ListMisses
		agg.DeadlineHits += s.DeadlineHits
		agg.PartialResults += s.PartialResults
		agg.JoinPanics += s.JoinPanics
		agg.DecodeFailures += s.DecodeFailures
		agg.DegradedResults += s.DegradedResults
		agg.Shed += s.Shed
		agg.IndexReloads += s.IndexReloads
		agg.InFlight += s.InFlight
		agg.QueueDepth += s.QueueDepth
		agg.CachedLists += s.CachedLists
		agg.BlockDecodes += s.BlockDecodes
		agg.BlocksSkipped += s.BlocksSkipped
		agg.CacheBytes += s.CacheBytes
		agg.CoalescedDecodes += s.CoalescedDecodes
		agg.DecodeWaits += s.DecodeWaits
		agg.UnionCandidates += s.UnionCandidates
		agg.PivotSkips += s.PivotSkips
		agg.UnionUnpruned += s.UnionUnpruned
		agg.PairHits += s.PairHits
		agg.PairServed += s.PairServed
		agg.PairBoundPrunes += s.PairBoundPrunes
		agg.Hedged += s.Hedged
		agg.Retried += s.Retried
		agg.ShardTimeouts += s.ShardTimeouts
		agg.BreakerOpen += s.BreakerOpen
		agg.QuorumDegraded += s.QuorumDegraded
		agg.ShardFailures += s.ShardFailures
	}
	if agg.PrunedDocs+agg.DocsEvaluated > 0 {
		agg.PrunedFraction = float64(agg.PrunedDocs) / float64(agg.PrunedDocs+agg.DocsEvaluated)
	}
	agg.QueryLatency = mergeLatency(hists)
	agg.Shards = shards
	return agg
}

// mergeLatency folds per-shard latency histograms into one: bucket
// counts sum by upper bound (0 — the overflow bucket — sorts last)
// and the mean recomputes from the count-weighted per-shard means.
func mergeLatency(hists []engine.LatencyHistogram) engine.LatencyHistogram {
	counts := map[uint64]uint64{}
	var out engine.LatencyHistogram
	totalMicros := 0.0
	for _, h := range hists {
		out.Count += h.Count
		totalMicros += h.MeanMicros * float64(h.Count)
		for _, b := range h.Buckets {
			counts[b.UpperMicros] += b.Count
		}
	}
	if out.Count == 0 {
		return out
	}
	out.MeanMicros = totalMicros / float64(out.Count)
	uppers := make([]uint64, 0, len(counts))
	for u := range counts {
		uppers = append(uppers, u)
	}
	sort.Slice(uppers, func(i, j int) bool {
		if uppers[i] == 0 || uppers[j] == 0 {
			return uppers[j] == 0 // 0 is the unbounded bucket: last
		}
		return uppers[i] < uppers[j]
	})
	for _, u := range uppers {
		out.Buckets = append(out.Buckets, engine.LatencyBucket{UpperMicros: u, Count: counts[u]})
	}
	return out
}

// Publish exposes the coordinator's rolled-up Stats as an expvar
// variable; it shares the duplicate-name guard with Engine.Publish.
func (c *Coordinator) Publish(name string) error {
	return engine.PublishFunc(name, c.Stats)
}
