package engine

import (
	"math"
	"sync"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// The worker pool behind the candidate walk: chunked job dispatch,
// workers started as chunks ship, per-worker kernel reuse, match lists
// merged just before their join, and floor-checked joins.

// dispatchChunk is the dispatcher's batching factor: candidates ship
// to workers this many at a time. Large enough to amortize channel
// and atomic-floor costs, small enough that the floor the workers
// hold never goes badly stale.
const dispatchChunk = 32

// maxSlabChunks caps how many chunks' worth of jobs one slab holds.
const maxSlabChunks = 8

// slab returns a fresh slab of per elements for each job of the chunks
// to come, after shipped chunks have gone: one chunk's worth at first,
// then as many chunks' worth as have shipped, up to maxSlabChunks. A
// walk that confirms few candidates allocates little, and a long one a
// few growing slabs rather than a slab per chunk.
func slab[T any](per, shipped int) []T {
	return make([]T, dispatchChunk*per*min(shipped+1, maxSlabChunks))
}

// docJob is one unit of worker work: a candidate document, its score
// upper bound (+Inf when the query has no bound), and its join
// instance: mask has the bit of every matched concept, and lists one
// slot per set bit, in ascending concept order. The dispatcher ships
// lists empty, with each slot's stems and signature as the candidate
// walk found them (conceptCursor.locs); the worker fills every slot
// (fillLists).
type docJob struct {
	doc   int
	bound float64
	mask  uint64
	lists match.Lists
	locs  []stemLoc  // where the concepts' stems hold doc, slot by slot
	nlocs []int32    // per slot: how many of locs are its
	sigs  []join.Sig // per slot: the signature of the list to merge
}

// pool is what one query's join workers share with its dispatcher:
// the query, its kernel factory and concepts, the top-k heap, the job
// channel, and the workers' tally: each worker adds its own to it once,
// under mu, when it exits.
type pool struct {
	e       *Engine
	qs      *queryState
	factory KernelFactory
	cds     []*conceptData
	top     *topK
	jobs    chan []docJob
	wg      sync.WaitGroup
	mu      sync.Mutex
	tally   Tally
}

// chunker batches a dispatcher's jobs for the worker pool: a chunk of
// jobs and their list headers are carved off slabs that are replaced,
// never rewound (slab), so dispatch allocates per few shipped chunks,
// not per candidate, and nothing a worker holds is written again. It
// starts the pool's workers too, one per chunk shipped until none is
// idle, so a query whose walk confirms few candidates starts only the
// workers it can use.
type chunker struct {
	*pool
	chunk   []docJob
	jobSlab []docJob
	slab    match.Lists
	shipped int // chunks sent
	idle    int // workers not started yet
}

// add queues jb with n empty list slots, shipping the chunk when it is
// full; false means the query's context ended first.
func (c *chunker) add(jb docJob, n int) bool {
	if c.chunk == nil {
		if len(c.jobSlab) < dispatchChunk {
			c.jobSlab = slab[docJob](1, c.shipped)
		}
		c.chunk, c.jobSlab = c.jobSlab[:0:dispatchChunk], c.jobSlab[dispatchChunk:]
	}
	if len(c.slab) < n {
		c.slab = slab[match.List](len(c.cds), c.shipped)
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
	if c.idle > 0 {
		c.idle--
		c.work()
	}
	// Counted before the send: the receiving worker uncounts it at once,
	// and the gauge must not read below zero meanwhile.
	c.e.queueDepth.Add(int64(len(c.chunk)))
	select {
	case c.jobs <- c.chunk:
		c.chunk = nil
		c.shipped++
		return true
	case <-c.qs.ctx.Done():
		c.e.queueDepth.Add(-int64(len(c.chunk)))
		return false
	}
}

// work starts one join worker. It drains job chunks, re-checks each
// job's bound and cache rung against the risen floor, merges the job's
// match lists, runs the kernel under panic isolation, and offers
// results to the shared top-k heap. The floor entry is snapshotted
// once per chunk and refreshed only after an offer could have raised
// it; a stale snapshot is sound — the entry only improves in rank
// order, so staleness prunes less, never more. A job is dropped only
// when its bound is strictly below its bar (floorEntry.bar): a bound
// at the floor still runs when the document's id would win the tie.
// The same bar arms a join.Floored kernel (safeJoin), unless pruning is
// disabled — and, before that, the cache rung (rungCut): a document
// whose lists' signatures prove its every window too wide for the
// kernel's cut width is pruned like a bound below its bar, its lists
// never merged. The dispatcher ran the same rung against its own,
// staler, bar. The worker counts into a local tally, added to the
// pool's as it exits. The dispatcher closes jobs and waits on wg.
func (p *pool) work() {
	e, qs, factory, cds, top := p.e, p.qs, p.factory, p.cds, p.top
	p.wg.Add(1)
	go func() {
		var t Tally
		defer func() {
			p.mu.Lock()
			p.tally.Add(t)
			p.mu.Unlock()
			p.wg.Done()
		}()
		kern := buildKernel(factory, e.prune, &t)
		scratch := make([]match.List, len(cds))
		var at []index.StemAt
		// Polled once per document: a non-blocking receive, where
		// ctx.Err() locks a mutex the whole pool shares.
		done := qs.ctx.Done()
		for chunk := range p.jobs {
			e.queueDepth.Add(-int64(len(chunk)))
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
					t.PrunedDocs++
					continue
				}
				if kern.Kernel == nil { // last build panicked: retry per job
					kern = buildKernel(factory, e.prune, &t)
					if kern.Kernel == nil {
						qs.fail()
						continue
					}
				}
				cut, panicked := rungCut(kern, bar, jb.sigs)
				if cut {
					t.PrunedDocs++
					continue
				}
				var set match.Set
				var score float64
				var ok bool
				if !panicked {
					fillLists(cds, jb, scratch, &at)
					set, score, ok, panicked = safeJoin(kern, bar, jb.lists)
				}
				t.JoinsRun++
				if panicked {
					t.JoinPanics++
					qs.fail()
					kern = workerKernel{} // poisoned scratch: rebuild before reuse
					continue
				}
				if fk := kern.floored; fk != nil && fk.FloorCut() {
					t.FloorCutJoins++
					if fk.WindowCut() {
						t.WindowCutJoins++
					}
				}
				if dk := kern.valid; dk != nil {
					t.KernelInvocations += uint64(dk.Invocations())
					if dk.Capped() {
						// No trustworthy score: like a document past the
						// deadline, this one stays unevaluated (Partial).
						t.DedupCapped++
						continue
					}
				}
				t.DocsEvaluated++
				if ok && !math.IsNaN(score) {
					top.offer(jb.doc, score, set)
					floor = top.entry()
				}
			}
		}
	}()
}
