package engine

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// The worker pool shared by the conjunctive and disjunctive
// evaluation paths: chunked job dispatch, per-worker kernel reuse,
// match lists merged just before their join, and floor-checked joins.

// dispatchChunk is the dispatcher's batching factor: candidates ship
// to workers this many at a time. Large enough to amortize channel
// and atomic-floor costs, small enough that the floor the workers
// hold never goes badly stale.
const dispatchChunk = 32

// docJob is one unit of worker work: a candidate document, its score
// upper bound (+Inf when the query has no bound), and its join
// instance. Conjunctive jobs leave mask zero and size lists to the
// full query width; disjunctive jobs set the bit of every matched
// concept and size lists to the match count, slots in set-bit order.
// The dispatcher ships lists empty, with each slot's stems and
// signature as the candidate walk found them (conceptCursor.at); the
// worker fills every slot (fillLists).
type docJob struct {
	doc   int
	bound float64
	mask  uint64
	lists match.Lists
	locs  []stemLoc  // where the concepts' stems hold doc, slot by slot
	nlocs []int32    // per slot: how many of locs are its
	sigs  []join.Sig // per slot: the signature of the list to merge
}

// chunker batches a dispatcher's jobs for the worker pool: a chunk of
// jobs and their list headers are carved off fresh slabs, so dispatch
// allocates per shipped chunk, not per candidate, and nothing a worker
// holds is written again.
type chunker struct {
	e     *Engine
	ctx   context.Context
	jobs  chan<- []docJob
	chunk []docJob
	slab  match.Lists
	width int // the most list slots a job takes
}

// add queues jb with n empty list slots, shipping the chunk when it is
// full; false means the query's context ended first.
func (c *chunker) add(jb docJob, n int) bool {
	if c.chunk == nil {
		c.chunk = make([]docJob, 0, dispatchChunk)
	}
	if len(c.slab) < n {
		c.slab = make(match.Lists, dispatchChunk*c.width)
	}
	jb.lists, c.slab = c.slab[:n:n], c.slab[n:]
	c.chunk = append(c.chunk, jb)
	return len(c.chunk) < dispatchChunk || c.ship()
}

// ship sends the queued jobs, if any; false means the query's context
// ended first.
func (c *chunker) ship() bool {
	if len(c.chunk) == 0 {
		return true
	}
	// Counted before the send: the receiving worker uncounts it at once,
	// and the gauge must not read below zero meanwhile.
	c.e.counters.queueDepth.Add(int64(len(c.chunk)))
	select {
	case c.jobs <- c.chunk:
		c.chunk = nil
		return true
	case <-c.ctx.Done():
		c.e.counters.queueDepth.Add(-int64(len(c.chunk)))
		return false
	}
}

// joinWorkers spawns the join worker pool shared by the conjunctive
// and disjunctive paths. Workers drain job chunks, re-check each job's
// bound and cache rung against the risen floor, merge the job's match
// lists, run the kernel under panic isolation, and offer results to
// the shared top-k heap. The floor entry is
// snapshotted once per chunk and refreshed only after an offer could
// have raised it; a stale snapshot is sound — the entry only improves
// in rank order, so staleness prunes less, never more. A job is
// dropped only when its bound is strictly below its bar
// (floorEntry.bar): a bound at the floor still runs when the
// document's id would win the tie. The same bar arms a join.Floored
// kernel (safeJoin), unless pruning is disabled — and, before that,
// the cache rung (rungCut): a document whose lists' signatures prove
// its every window too wide for the kernel's cut width is pruned like
// a bound below its bar, its lists never merged. The dispatcher ran
// the same rung against its own, staler, bar.
// Conjunctive jobs (mask == 0) carry full-width list slices;
// disjunctive jobs carry a concept bitmask with one compacted list
// slot per set bit. The caller closes jobs and waits on wg.
func (e *Engine) joinWorkers(qs *queryState, factory KernelFactory, cds []*conceptData,
	workers int, jobs <-chan []docJob, top *topK, evaluated, pruned *atomic.Int64, wg *sync.WaitGroup) {
	nc := len(cds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kern := buildKernel(factory, e)
			scratch := make([]match.List, nc)
			var at []index.StemAt
			// Polled once per document: a non-blocking receive, where
			// ctx.Err() locks a mutex the whole pool shares.
			done := qs.ctx.Done()
			for chunk := range jobs {
				e.counters.queueDepth.Add(-int64(len(chunk)))
				floor := top.entry()
				for _, jb := range chunk {
					// Drain without evaluating once the query is out of
					// time; those documents count as unevaluated.
					select {
					case <-done:
						continue
					default:
					}
					bar := floor.bar(jb.doc)
					if jb.bound < bar {
						pruned.Add(1)
						e.counters.prunedDocs.Add(1)
						continue
					}
					if kern.Kernel == nil { // last build panicked: retry per job
						kern = buildKernel(factory, e)
						if kern.Kernel == nil {
							qs.fail()
							continue
						}
					}
					cut, panicked := rungCut(kern, bar, jb.sigs)
					if cut {
						pruned.Add(1)
						e.counters.prunedDocs.Add(1)
						continue
					}
					var set match.Set
					var score float64
					var ok bool
					if !panicked {
						fillLists(cds, jb, scratch, &at)
						set, score, ok, panicked = safeJoin(kern, bar, jb.lists)
					}
					e.counters.joinsRun.Add(1)
					if panicked {
						e.counters.joinPanics.Add(1)
						qs.fail()
						kern = workerKernel{} // poisoned scratch: rebuild before reuse
						continue
					}
					if fk := kern.floored; fk != nil && fk.FloorCut() {
						e.counters.floorCutJoins.Add(1)
						if fk.WindowCut() {
							e.counters.windowCutJoins.Add(1)
						}
					}
					if dk := kern.valid; dk != nil {
						e.counters.kernelInvs.Add(uint64(dk.Invocations()))
						if dk.Capped() {
							// No trustworthy score: like a document past the
							// deadline, this one stays unevaluated (Partial).
							e.counters.dedupCapped.Add(1)
							continue
						}
					}
					e.counters.docsEvaluated.Add(1)
					evaluated.Add(1)
					if ok && !math.IsNaN(score) {
						top.offer(jb.doc, score, set)
						floor = top.entry()
					}
				}
			}
		}()
	}
}
