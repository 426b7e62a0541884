package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// Query is one retrieval request: candidate documents are those
// containing at least one match for every concept, each is joined
// with Join, and the K best are returned.
type Query struct {
	Concepts []index.Concept
	Join     KernelFactory
	// Spec optionally names the query's kernel declaratively (family,
	// alpha, valid-matchset restriction). Transports that cannot ship
	// the Join closure — the remote shard tier — serialize Spec instead
	// and the serving side resolves it; a local Search with Join == nil
	// resolves Spec itself. When both are set, Join wins locally and
	// Spec rides the wire, so one Query serves local and remote shards
	// with identical kernels.
	Spec KernelSpec
	// K is the number of documents to return; ≤ 0 means DefaultK, and
	// above MaxK is an error.
	K int
	// Mode selects conjunctive (ModeAND) or disjunctive (ModeOR)
	// candidate generation; ModeDefault (the zero value) uses the
	// engine's configured Config.Mode.
	Mode QueryMode
	// MinMatch is the m-of-n knob: a candidate document must match at
	// least MinMatch of the query's concepts. 0 means the resolved
	// mode's default — len(Concepts) for AND, 1 for OR. Any explicit
	// value in [1, len(Concepts)] selects the disjunctive evaluation
	// path, so MinMatch = len(Concepts) is AND semantics evaluated by
	// ranked union. Values < 0 or > len(Concepts) are errors.
	MinMatch int
	// Floor optionally shares one pruning floor across engines: when a
	// coordinator scatters this query to N doc-partitioned shards, each
	// shard both raises the shared floor (whenever its local top-k heap
	// fills or improves) and prunes against it, so a strong document
	// found on one shard stops weak candidates on every other. nil (the
	// single-engine case) keeps the floor query-local. Sharing is
	// lossless for the merged result: a shard's k-th-best kept score is
	// a lower bound on the global k-th best — those k documents exist —
	// and against the shared floor pruning is strictly-below on score,
	// so equal-scoring documents still surface for the merge's doc-id
	// tie-break (a member prunes ties only against its own kept entry).
	Floor *GlobalFloor
}

// ErrQueryTooWide is returned for a query with more concepts than its
// kernel can join. WIN keeps one state per subset of query terms, so
// join.WINKernel refuses (panics on) more than join.MaxWINTerms lists;
// the width is checked once, at the entry points, instead of surfacing
// as one recovered kernel panic per candidate document.
var ErrQueryTooWide = errors.New("engine: query too wide for its kernel")

// CheckWidth reports ErrQueryTooWide when the query's Spec names a
// kernel that cannot join len(Concepts) lists. Engine.Search, the
// shard coordinator and the remote shard server all call it before any
// work is done. An opaque Join factory cannot be inspected; custom
// factories cap their own width.
func (q Query) CheckWidth() error {
	if q.Spec.Family == "win" && len(q.Concepts) > join.MaxWINTerms {
		return fmt.Errorf("%w: WIN joins at most %d concepts, got %d", ErrQueryTooWide, join.MaxWINTerms, len(q.Concepts))
	}
	return nil
}

// DocResult is one ranked document: its id, best matchset, and score.
type DocResult struct {
	Doc   int
	Score float64
	Set   match.Set
}

// Result is a query's outcome.
type Result struct {
	// Docs holds the top-k documents, best first.
	Docs []DocResult
	// Partial is true when the context expired before every candidate
	// was evaluated or pruned; Docs then ranks only the documents
	// evaluated so far (the best-so-far answer), not the full corpus.
	// Pruned candidates never make a result Partial: pruning is
	// lossless, so a fully pruned+evaluated query is a complete answer.
	Partial bool
	// Degraded is true when part of the query's work failed and was
	// isolated — a kernel panicked on some document, or a concept's
	// postings could not be decoded. Every document in Docs still
	// carries its true score (failed documents are dropped, never
	// mis-scored), so a degraded answer is a sound subset of the
	// healthy answer; Failed counts the dropped candidates.
	Degraded bool
	// Candidates is the number of documents containing every concept;
	// Evaluated is how many of them were actually joined; Pruned is
	// how many were skipped because their score upper bound could not
	// beat the top-k floor; Failed is how many were dropped by
	// recovered faults.
	Candidates int
	Evaluated  int
	Pruned     int
	Failed     int
	// FailedShards counts shards whose answers are missing from a
	// merged fleet Result — non-zero only when a coordinator running in
	// quorum mode assembled a partial-fleet (degraded) answer. Always 0
	// on a single engine and on a healthy fleet.
	FailedShards int
	// Elapsed is the wall-clock time the query took.
	Elapsed time.Duration
}

// queryState is the per-query fault and cancellation context threaded
// through candidate generation and the worker pool. degraded and
// failed are touched by workers concurrently; cancelled only by the
// dispatcher goroutine.
type queryState struct {
	ctx       context.Context
	idx       *index.Compact
	epoch     uint64
	cancelled bool
	degraded  atomic.Bool
	failed    atomic.Int64
}

// fail records one candidate document dropped by a recovered fault.
func (qs *queryState) fail() {
	qs.failed.Add(1)
	qs.degraded.Store(true)
}

// Search evaluates the query document-at-a-time. It returns an error
// for malformed queries and for admission rejection (ErrOverloaded); a
// context deadline or cancellation instead yields the best-so-far
// Result with Partial set, and recovered faults yield a Result with
// Degraded set — never a panic escaping to the caller.
func (e *Engine) Search(ctx context.Context, q Query) (*Result, error) {
	return e.search(ctx, q, nil)
}

// SearchSnapshot is Search against a pinned snapshot (Engine.Snapshot)
// instead of the engine's current one. It is how a shard coordinator
// keeps a scattered query on one index generation end to end: the
// coordinator pins every child's snapshot up front, and a SwapIndex
// racing the query cannot move any child off the pinned epoch. The
// zero Snapshot — and a snapshot from a different engine's index
// lineage — is the caller's bug; only handles this engine issued are
// meaningful.
func (e *Engine) SearchSnapshot(ctx context.Context, q Query, s Snapshot) (*Result, error) {
	if s.snap == nil {
		return nil, errors.New("engine: SearchSnapshot on the zero Snapshot")
	}
	return e.search(ctx, q, s.snap)
}

func (e *Engine) search(ctx context.Context, q Query, pinned *snapshot) (*Result, error) {
	if len(q.Concepts) == 0 {
		return nil, errors.New("engine: query has no concepts")
	}
	if err := q.CheckWidth(); err != nil {
		return nil, err
	}
	// A spec-only query is eligible for the auxiliary pair-index stage
	// (pairpath.go): pair lists are keyed by the spec's fingerprint, so
	// an opaque Join closure can never match one. Captured before the
	// spec is resolved into q.Join below.
	pairFP := uint64(0)
	if e.pairs && q.Join == nil && !q.Spec.Zero() {
		pairFP = q.Spec.Fingerprint()
	}
	if q.Join == nil {
		// A spec-only query (the shape that crosses a process boundary)
		// resolves its kernel here, so remote shard servers never touch
		// factories themselves.
		if q.Spec.Zero() {
			return nil, errors.New("engine: query has no kernel factory")
		}
		f, err := q.Spec.Factory()
		if err != nil {
			return nil, err
		}
		q.Join = f
	}
	if q.K > MaxK {
		return nil, fmt.Errorf("engine: K %d out of range [0, %d]", q.K, MaxK)
	}
	k := q.K
	if k <= 0 {
		k = DefaultK
	}
	mode := q.Mode
	if mode == ModeDefault {
		mode = e.mode
	}
	n := len(q.Concepts)
	if q.MinMatch < 0 || q.MinMatch > n {
		return nil, fmt.Errorf("engine: MinMatch %d out of range [0, %d]", q.MinMatch, n)
	}
	for j, c := range q.Concepts {
		// NaN < floor is always false and ±Inf defeats every cap: such a
		// weight would poison the score bounds, so it is the caller's
		// error, as it already is on the wire (internal/remote).
		if !c.Finite() {
			return nil, fmt.Errorf("engine: concept %d has a non-finite weight", j)
		}
	}
	minMatch := q.MinMatch
	if minMatch == 0 {
		minMatch = n
		if mode == ModeOR {
			minMatch = 1
		}
	}
	// An explicit MinMatch always takes the disjunctive path, even at
	// m = n: AND-by-ranked-union is how the equivalence tests keep the
	// union evaluator honest against the intersection evaluator.
	union := mode == ModeOR || q.MinMatch > 0
	if union && n > 64 {
		return nil, fmt.Errorf("engine: disjunctive queries support at most 64 concepts, got %d", n)
	}

	// Admission control: at the in-flight cap, shed immediately or
	// wait until the caller's context gives up.
	release, err := e.admit.admit(ctx)
	if err != nil {
		e.counters.shed.Add(1)
		return nil, err
	}
	defer release()

	start := time.Now()
	e.counters.queries.Add(1)
	defer func() { e.latency.observe(time.Since(start)) }()

	snap := pinned
	if snap == nil {
		snap = e.snap.Load()
	}
	qs := &queryState{ctx: ctx, idx: snap.idx, epoch: snap.epoch}
	if pairFP != 0 {
		e.preparePairs(snap, q.Spec, pairFP)
	}

	// Pair-served fast path: a two-term conjunctive spec query whose
	// pair list is registered skips concept resolution, candidate
	// intersection, and the worker pool entirely — the list already
	// holds every (doc, score, witness) the kernel path would compute.
	if pairFP != 0 && !union && len(q.Concepts) == 2 {
		if res, ok := e.servePair(qs, q, pairFP, k, start); ok {
			return res, nil
		}
	}

	// Candidate generation: resolve each concept's block table
	// (cache-assisted) and intersect by a cursor walk that gallops over
	// block doc-ranges from the skip tables, decoding only the block
	// directories the intersection actually enters. The context is
	// checked before each concept, so a cancelled query builds no
	// further table from the postings; a table it did build stays in
	// the concept cache for the next query.
	cds := make([]*conceptData, len(q.Concepts))
	for j, c := range q.Concepts {
		if ctx.Err() != nil {
			qs.cancelled = true
			return e.finish(qs, &Result{Docs: []DocResult{}}, start), nil
		}
		cds[j] = e.conceptData(qs, c)
	}
	if union {
		return e.searchUnion(qs, q, cds, minMatch, k, start), nil
	}
	candidates, at := e.intersectCursors(qs, cds)

	// No candidate contains every concept: the answer is empty and
	// final, so skip the worker pool entirely. (A concept whose decode
	// failed has an empty candidate list, so degraded queries take
	// this path with Degraded set — an empty but sound answer.)
	res := &Result{Candidates: len(candidates)}
	if len(candidates) == 0 {
		res.Docs = []DocResult{}
		return e.finish(qs, res, start), nil
	}

	// Max-score pruning setup: when the query's kernel can cap a
	// document's score from its per-list maxima, compute every
	// candidate's upper bound and order candidates by bound,
	// descending (ties keep ascending document order). Processing the
	// most promising documents first drives the top-k floor up
	// quickly, so later, weaker candidates are skipped before their
	// join — or even before their blocks are decoded. A factory
	// or bound that panics here downgrades the query to the unpruned
	// (still correct) path.
	nc := len(cds)
	var bounds []float64
	var order []int // candidate indices in dispatch order; nil = as-is
	if e.prune {
		if bounds = e.planBounds(q.Join, candidates, blockMaxima(cds, at), nc); bounds != nil {
			order = boundOrder(bounds)
		}
	}

	// Worker pool: candidates flow through one shared channel in
	// dispatchChunk batches, so channel operations and top-k floor
	// loads amortize across a chunk instead of costing one each per
	// document (the flat-worker-scaling fix). The dispatcher only
	// screens and ships; workers fetch each job's match lists — lazy
	// per-block decode fanned out across the pool — run joins, and
	// offer results to the shared top-k heap. The heap's result is
	// insertion-order independent (ties break on document id, and the
	// floor only rises), so unsharded dispatch cannot change answers.
	// Each worker builds one kernel from the query's factory and reuses
	// its scratch for every document it evaluates; a kernel that panics
	// is discarded and rebuilt, so one poisoned join cannot corrupt the
	// next document's evaluation.
	workers := e.workers
	if workers > len(candidates) {
		workers = len(candidates)
	}
	top := newTopK(k, q.Floor)
	var evaluated, pruned atomic.Int64
	chunkCap := workers * e.queue / dispatchChunk
	if chunkCap < 1 {
		chunkCap = 1
	}
	jobs := make(chan []docJob, chunkCap)
	var wg sync.WaitGroup
	e.joinWorkers(qs, q.Join, cds, workers, jobs, top, &evaluated, &pruned, &wg)

	// One flat backing array for every job's lists header, and one for
	// the jobs themselves: chunks are subslices of jobsBacking (which
	// never grows past its capacity), so dispatch allocates nothing
	// per chunk and the slices workers receive are never reallocated
	// under them.
	backing := make(match.Lists, len(candidates)*nc)
	jobsBacking := make([]docJob, 0, len(candidates))
	pending := 0 // jobs appended but not yet shipped
	ship := func() bool {
		chunk := jobsBacking[len(jobsBacking)-pending:]
		// Counted before the send: the receiving worker uncounts it at
		// once, and the gauge must not read below zero meanwhile.
		e.counters.queueDepth.Add(int64(len(chunk)))
		select {
		case jobs <- chunk:
			pending = 0
			return true
		case <-ctx.Done():
			e.counters.queueDepth.Add(-int64(len(chunk)))
			return false
		}
	}
	flushFloor := top.entry()
dispatch:
	for oi := 0; oi < len(candidates); oi++ {
		if oi&31 == 0 {
			// Stop dispatching for a query nobody is waiting on
			// anymore, and refresh the dispatcher's floor on the same
			// coarse stride.
			if ctx.Err() != nil {
				break dispatch
			}
			flushFloor = top.entry()
		}
		i := oi
		bound := math.Inf(1)
		if order != nil {
			i = order[oi]
			bound = bounds[i]
			// Screen before shipping: a document whose bound ranks
			// strictly below the k-th kept entry (floorEntry.bar)
			// cannot displace any kept document (the entry only
			// improves), so skipping its join — and its block fetches
			// — loses nothing.
			if bound < flushFloor.bar(candidates[i]) {
				pruned.Add(1)
				e.counters.prunedDocs.Add(1)
				continue
			}
		}
		jobsBacking = append(jobsBacking, docJob{doc: candidates[i], bound: bound,
			lists: backing[i*nc : (i+1)*nc : (i+1)*nc], at: at[i*nc : (i+1)*nc]})
		if pending++; pending == dispatchChunk {
			if !ship() {
				break dispatch
			}
		}
	}
	if pending > 0 {
		ship()
	}
	close(jobs)
	wg.Wait()

	// Candidate blocks no worker ever fetched were pruned below
	// decode: their bytes were never touched.
	e.countSkippedBlocks(cds)

	res.Docs = top.results()
	res.Evaluated = int(evaluated.Load())
	res.Pruned = int(pruned.Load())
	return e.finish(qs, res, start), nil
}

// finish folds the query state into the result and updates the
// outcome counters.
func (e *Engine) finish(qs *queryState, res *Result, start time.Time) *Result {
	res.Failed = int(qs.failed.Load())
	res.Degraded = qs.degraded.Load()
	res.Partial = res.Evaluated+res.Pruned+res.Failed != res.Candidates || qs.cancelled
	if res.Degraded {
		e.counters.degraded.Add(1)
	}
	if res.Partial {
		e.counters.partials.Add(1)
	}
	if errors.Is(qs.ctx.Err(), context.DeadlineExceeded) {
		e.counters.deadlineHits.Add(1)
	}
	res.Elapsed = time.Since(start)
	return res
}

// planBounds computes every candidate's cap from its per-list maxima
// through the query kernel's bounder. nil means no bounds — the kernel
// has no cap, or the factory or a cap evaluation panicked (recovered
// and counted) — and the query runs unpruned, which is always sound.
func (e *Engine) planBounds(f KernelFactory, candidates []int, perListMax []float64, nc int) []float64 {
	b := e.bounderFor(f)
	if b == nil {
		return nil
	}
	bounds := make([]float64, len(candidates))
	for i := range candidates {
		if bounds[i] = b.bound(perListMax[i*nc:(i+1)*nc], 0); b.failed {
			return nil
		}
	}
	return bounds
}

// boundOrder computes the bound-descending dispatch order (ties keep
// ascending document order, so dispatch stays deterministic).
func boundOrder(bounds []float64) []int {
	order := make([]int, len(bounds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] > bounds[order[b]] })
	return order
}
