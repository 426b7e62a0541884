package engine

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// The worker pool shared by the conjunctive and disjunctive
// evaluation paths: chunked job dispatch, per-worker kernel reuse,
// lazy block decode, and floor-checked joins.

// dispatchChunk is the dispatcher's batching factor: candidates ship
// to workers this many at a time. Large enough to amortize channel
// and atomic-floor costs, small enough that the floor the workers
// hold never goes badly stale.
const dispatchChunk = 32

// docJob is one unit of worker work: a candidate document, its score
// upper bound (+Inf when the query has no bound), and its assembled
// join instance. Conjunctive jobs leave mask zero and size lists to
// the full query width; disjunctive jobs set the bit of every matched
// concept and size lists to the match count, slots in set-bit order.
// The dispatcher ships lists empty; the worker fills every slot
// (fillLists).
type docJob struct {
	doc   int
	bound float64
	mask  uint64
	lists match.Lists
	at    []blockPos // per slot: where the candidate walk found doc
}

// joinWorkers spawns the join worker pool shared by the conjunctive
// and disjunctive paths. Workers drain job chunks, re-check each job's
// bound against the risen floor, fetch the job's match lists (lazy
// per-block decode), run the kernel under panic isolation, and
// offer results to the shared top-k heap. The floor entry is
// snapshotted once per chunk and refreshed only after an offer could
// have raised it; a stale snapshot is sound — the entry only improves
// in rank order, so staleness prunes less, never more. A job is
// dropped only when its bound is strictly below its bar
// (floorEntry.bar): a bound at the floor still runs when the
// document's id would win the tie. The same bar arms a join.Floored
// kernel (safeJoin), unless pruning is disabled — and, before that,
// the cache rung: a document whose lists' signatures prove its every
// window too wide for the kernel's cut width is pruned like a bound
// below its bar, its join never run.
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
			fetch := make([]blockFetch, nc)
			for i := range fetch {
				fetch[i].blk = -1
			}
			sigs := make([]join.Sig, nc)
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
					if !e.fillLists(qs, cds, jb, fetch, sigs) {
						// Block decode failure: drop this document only. An
						// unfilled job on an expired context is not a failure
						// — a cancelled flight waiter returns false without
						// any decode having gone wrong — so it counts as
						// unevaluated (Partial), not dropped (Degraded).
						if qs.ctx.Err() == nil {
							qs.fail()
						}
						continue
					}
					if kern.Kernel == nil { // last build panicked: retry per job
						kern = buildKernel(factory, e)
						if kern.Kernel == nil {
							qs.fail()
							continue
						}
					}
					set, score, ok, rungCut, panicked := safeJoin(kern, bar, jb.lists, sigs[:len(jb.lists)])
					if rungCut {
						pruned.Add(1)
						e.counters.prunedDocs.Add(1)
						continue
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

// countSkippedBlocks tallies candidate blocks no worker ever fetched —
// pruned below decode, their bytes never touched.
func (e *Engine) countSkippedBlocks(cds []*conceptData) {
	for _, cd := range cds {
		skipped := 0
		for w := range cd.cand {
			skipped += bits.OnesCount64(cd.cand[w] &^ cd.fetched[w].Load())
		}
		e.counters.blocksSkipped.Add(uint64(skipped))
	}
}
