package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// Query is one retrieval request: candidate documents are those
// containing at least one match for MinMatch of its concepts (every
// concept by default), each is joined with Join over its matched
// lists, and the K best are returned.
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
	// Mode selects conjunctive (ModeAND, the zero value) or
	// disjunctive (ModeOR) candidate generation.
	Mode QueryMode
	// MinMatch is the m-of-n knob: a candidate document must match at
	// least MinMatch of the query's concepts. 0 means the resolved
	// mode's default — len(Concepts) for AND, 1 for OR. Every query
	// runs the one candidate walk (union.go) at its resolved m, so
	// MinMatch = len(Concepts) is an AND query. Values < 0 or
	// > len(Concepts) are errors.
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

// ErrQueryTooWide is returned for a query with more concepts than the
// candidate walk or its kernel can take. WIN keeps one state per subset
// of query terms, so join.WINKernel refuses (panics on) more than
// join.MaxWINTerms lists; the width is checked once, at the entry
// points, instead of surfacing as one recovered kernel panic per
// candidate document.
var ErrQueryTooWide = errors.New("engine: query too wide for its kernel")

// MaxConcepts caps a query's concepts: every step of the candidate walk
// visits each concept's cursor, and a walker's bounder keeps the
// maxima of a pivot's matched concepts in a fixed array of this size.
const MaxConcepts = 64

// CheckWidth reports ErrQueryTooWide when the query has more than
// MaxConcepts concepts, when a concept has more than MaxConceptStems
// member words, or when the query's Spec names a kernel that cannot
// join len(Concepts) lists. Engine.Search, the shard coordinator and
// the remote shard server all call it before any work is done. An
// opaque Join factory cannot be inspected; custom factories cap their
// own width.
func (q Query) CheckWidth() error {
	if len(q.Concepts) > MaxConcepts {
		return fmt.Errorf("%w: at most %d concepts, got %d", ErrQueryTooWide, MaxConcepts, len(q.Concepts))
	}
	for j, c := range q.Concepts {
		if len(c) > MaxConceptStems {
			return fmt.Errorf("%w: concept %d has %d member words, at most %d", ErrQueryTooWide, j, len(c), MaxConceptStems)
		}
	}
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
	// Candidates is the number of documents the candidate walk
	// confirmed: each matches at least MinMatch concepts. A walk that
	// jumps past documents that cannot outrank the floor never
	// confirms them, so it depends on how soon the floor rose.
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

// queryState is the per-query fault and cancellation context, and the
// query's tally, threaded through candidate generation and the
// walkers. degraded and failed are touched by walkers concurrently;
// cancelled and tally only by the calling goroutine, after its walkers
// have exited.
type queryState struct {
	ctx       context.Context
	idx       *index.Compact
	epoch     uint64
	cancelled bool
	degraded  atomic.Bool
	failed    atomic.Int64
	tally     Tally
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
	n := len(q.Concepts)
	if q.MinMatch < 0 || q.MinMatch > n {
		return nil, fmt.Errorf("engine: MinMatch %d out of range [0, %d]", q.MinMatch, n)
	}
	if q.Mode != ModeAND && q.Mode != ModeOR {
		return nil, fmt.Errorf("engine: unknown query mode %d", q.Mode)
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
		if q.Mode == ModeOR {
			minMatch = 1
		}
	}

	// Admission control: at the in-flight cap, shed immediately or
	// wait until the caller's context gives up.
	release, err := e.admit.admit(ctx)
	if err != nil {
		e.count(Tally{Shed: 1})
		return nil, err
	}
	defer release()

	start := time.Now()

	snap := pinned
	if snap == nil {
		snap = e.snap.Load()
	}
	qs := &queryState{ctx: ctx, idx: snap.idx, epoch: snap.epoch}

	// Resolve each concept's stems for the candidate walk. The context
	// is checked before each concept, so a cancelled query decodes no
	// further stem.
	cds, data := make([]*conceptData, n), make([]conceptData, n)
	for j, c := range q.Concepts {
		if ctx.Err() != nil {
			qs.cancelled = true
			return e.finish(qs, &Result{Docs: []DocResult{}}, start), nil
		}
		cds[j] = &data[j]
		e.conceptData(qs, c, cds[j])
	}
	return e.walk(qs, q, cds, minMatch, k, start), nil
}

// finish folds the query state into the result, and adds the query's
// tally and latency to the engine's total. Candidates, Evaluated and
// Pruned are the tally's.
func (e *Engine) finish(qs *queryState, res *Result, start time.Time) *Result {
	t := &qs.tally
	res.Candidates, res.Evaluated, res.Pruned = int(t.UnionCandidates), int(t.DocsEvaluated), int(t.PrunedDocs)
	res.Failed = int(qs.failed.Load())
	res.Degraded = qs.degraded.Load()
	res.Partial = res.Evaluated+res.Pruned+res.Failed != res.Candidates || qs.cancelled
	t.Queries = 1
	if res.Degraded {
		t.DegradedResults = 1
	}
	if res.Partial {
		t.PartialResults = 1
	}
	if errors.Is(qs.ctx.Err(), context.DeadlineExceeded) {
		t.DeadlineHits = 1
	}
	res.Elapsed = time.Since(start)
	e.mu.Lock()
	e.total.Add(*t)
	e.latency.observe(res.Elapsed)
	e.mu.Unlock()
	return res
}
