package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// Disjunctive (OR / weak-AND / m-of-n) retrieval: a ranked-union
// evaluation path that advances the same leapfrog listCursors the
// conjunctive intersection uses, but in a WAND-style pivot loop over
// Fagin-threshold bounds. The walk repeatedly takes the m-th smallest
// cursor position as the pivot: cursors below it can never assemble m
// matches at their current documents, so they seek forward; once none
// sit below the pivot, at least m cursors sit exactly at the minimum —
// a confirmed candidate. Its aggregate score bound is the kernel's
// disjunctive cap (join.UnionBounded) over the matched cursors'
// per-list maxima — their block-max table entries. A pivot whose bound
// ranks strictly below the k-th kept entry (floorEntry.bar: below its
// score, or tied with it on a larger document id — a tie the pivot
// would still win on id never prunes) is skipped without fetching a
// single match list, and the walk jumps the matched cursors over the
// whole remaining block range in the same seek (see advanceUnion). The
// walk is id-ordered, so once the heap holds k documents at the
// kernel's cap every later pivot has lost its tie already: that is
// where Fagin's threshold (k objects with grade at least the threshold)
// stops the walk. Documents that survive the bound go to the shared
// worker pool, where block match areas are decoded lazily — only for
// documents that also survive the re-check at evaluation time.
//
// Soundness (DESIGN.md "Disjunctive retrieval & WAND soundness"): the
// per-cursor maxima dominate every match score the document can
// contribute, the union bound dominates the join over any subset of
// ≥ m matched lists, and the kept entry only improves in rank order —
// so a pivot skipped against today's entry is rejected a fortiori by
// every later one. The differential suite (union_diff_test.go) proves
// the pruned union path bitwise-identical to the exhaustive ranked
// union.

// QueryMode selects how many of a query's concepts a candidate
// document must contain.
type QueryMode int

const (
	// ModeDefault defers to the engine's configured Config.Mode (which
	// itself defaults to ModeAND).
	ModeDefault QueryMode = iota
	// ModeAND requires every concept — conjunctive intersection, the
	// engine's historical behavior.
	ModeAND
	// ModeOR requires at least one concept (ranked union); combine
	// with Query.MinMatch for m-of-n weak-AND semantics. Concepts
	// absent from the corpus degrade the query to its surviving terms
	// instead of emptying the result.
	ModeOR
)

// unionCursor wraps a listCursor for the pivot walk: ci is the
// concept's position in the query (the bit it owns in docJob.mask),
// doc the cursor's current document (−1 once exhausted).
type unionCursor struct {
	listCursor
	ci  int
	doc int
}

// unionBounder wraps a kernel's disjunctive bound with panic
// containment: a bound that panics poisons only the bounding — the
// query continues unpruned, which is always sound. It remembers its
// last evaluation (consecutive pivots mostly carry bit-identical
// maxima, and the cap costs a sort, a G per list and an F per subset
// size); it belongs to the one dispatcher goroutine.
type unionBounder struct {
	e      *Engine
	ub     join.UnionBounded
	failed bool
	// The last successful evaluation: the arguments' exact bits, in the
	// order given, and the bound they produced. lastMin 0 = none yet.
	lastMax   []uint64
	lastMin   int
	lastBound float64
}

// unionBounderFor probes the query's kernel for join.UnionBounded,
// recovering a panicking factory to nil (no bound, exhaustive union).
func (e *Engine) unionBounderFor(factory KernelFactory) (b *unionBounder) {
	defer func() {
		if r := recover(); r != nil {
			e.counters.joinPanics.Add(1)
			b = nil
		}
	}()
	if ub, ok := factory().(join.UnionBounded); ok {
		return &unionBounder{e: e, ub: ub}
	}
	return nil
}

// bound evaluates the kernel's disjunctive cap; a panic flips failed
// and yields +Inf, which never prunes. Arguments bit-identical to the
// previous call's return its bound without calling the kernel — the
// same float, since the cap is a function of its arguments alone.
func (b *unionBounder) bound(perListMax []float64, minMatch int) (v float64) {
	if b.remembers(perListMax, minMatch) {
		return b.lastBound
	}
	defer func() {
		if r := recover(); r != nil {
			b.e.counters.joinPanics.Add(1)
			b.failed = true
			v = math.Inf(1)
		}
	}()
	b.lastMax = b.lastMax[:0]
	for _, m := range perListMax {
		b.lastMax = append(b.lastMax, math.Float64bits(m))
	}
	// Nothing is remembered until the kernel has answered: it may
	// panic. It may also reorder perListMax, hence the copy above.
	b.lastMin = 0
	b.lastBound = b.ub.ScoreUnionUpperBound(perListMax, minMatch)
	b.lastMin = minMatch
	return b.lastBound
}

// remembers reports whether the arguments are the last evaluation's.
func (b *unionBounder) remembers(perListMax []float64, minMatch int) bool {
	if b.lastMin != minMatch || len(b.lastMax) != len(perListMax) {
		return false
	}
	for i, m := range perListMax {
		if math.Float64bits(m) != b.lastMax[i] {
			return false
		}
	}
	return true
}

// searchUnion evaluates a disjunctive query: candidates are documents
// matching at least minMatch concepts, scored by the kernel over their
// matched lists only (compacted in concept order).
func (e *Engine) searchUnion(qs *queryState, q Query, cds []*conceptData, minMatch, k int, start time.Time) *Result {
	res := &Result{}

	// One cursor per living concept. A failed concept (corrupt
	// postings — the query is already Degraded) and an unknown concept
	// (no postings at all: an empty table, exhausted at the first seek)
	// alike contribute no cursor: the union degrades to the surviving
	// terms instead of returning nothing, which is the point of
	// disjunctive evaluation.
	bounding := e.prune
	alive := make([]*unionCursor, 0, len(cds))
	for ci, cd := range cds {
		cu := &unionCursor{ci: ci}
		cu.cd = cd
		doc, ok := cu.seek(e, qs, 0)
		if !ok {
			continue
		}
		cu.doc = doc
		alive = append(alive, cu)
	}
	// Fewer surviving concepts than the match requirement: no document
	// can qualify. The answer is empty and complete (Degraded when a
	// concept failed rather than being absent).
	if len(alive) < minMatch {
		res.Docs = []DocResult{}
		return e.finish(qs, res, start)
	}

	// Probe the kernel for the disjunctive bound. Without one — or
	// with pruning disabled — every pivot carries a +Inf bound and the
	// loop degenerates to the exhaustive ranked union, which is always
	// sound (and is the differential baseline's evaluation order).
	var ub *unionBounder
	if bounding {
		if ub = e.unionBounderFor(q.Join); ub == nil {
			bounding = false
		}
	}
	if e.prune && !bounding {
		// A pruning engine running this union exhaustively — the kernel
		// has no disjunctive bound (e.g. the Weighted* scorefn families).
		// Silent degradation is an operational trap, so surface it in
		// Stats().UnionUnpruned.
		e.counters.unionUnpruned.Add(1)
	}

	top := newTopK(k, q.Floor)
	var evaluated, pruned atomic.Int64
	chunkCap := e.workers * e.queue / dispatchChunk
	if chunkCap < 1 {
		chunkCap = 1
	}
	jobs := make(chan []docJob, chunkCap)
	var wg sync.WaitGroup
	e.joinWorkers(qs, q.Join, cds, e.workers, jobs, top, &evaluated, &pruned, &wg)

	// The pivot walk. Unlike the conjunctive path the candidate count
	// is unknown upfront, so chunks are freshly allocated slices (the
	// workers may still hold shipped ones), and the jobs' list headers
	// are carved off a slab that is replaced, never rewound, when it
	// runs out.
	chunk := make([]docJob, 0, dispatchChunk)
	var slab match.Lists
	ship := func() bool {
		e.counters.queueDepth.Add(int64(len(chunk))) // before the send, as in search
		select {
		case jobs <- chunk:
			chunk = make([]docJob, 0, dispatchChunk)
			return true
		case <-qs.ctx.Done():
			e.counters.queueDepth.Add(-int64(len(chunk)))
			qs.cancelled = true
			return false
		}
	}
	flushFloor := top.entry()
	scratch := make([]float64, 0, len(alive))
	atDoc := make([]*unionCursor, 0, len(alive))
	steps := 0
pivots:
	for len(alive) >= minMatch {
		if steps&31 == 0 {
			// Poll the context and refresh the dispatcher's floor on a
			// coarse stride, like the conjunctive dispatch loop.
			if qs.ctx.Err() != nil {
				qs.cancelled = true
				break pivots
			}
			flushFloor = top.entry()
		}
		steps++
		d := mthSmallestDoc(alive, minMatch)
		progressed := false
		for i := 0; i < len(alive); {
			cu := alive[i]
			if cu.doc < d {
				progressed = true
				doc, ok := cu.seek(e, qs, d)
				if !ok {
					alive = append(alive[:i], alive[i+1:]...)
					continue
				}
				cu.doc = doc
			}
			i++
		}
		if progressed {
			continue
		}
		// Aligned: d is the minimum position and at least minMatch
		// cursors sit exactly on it — d provably matches ≥ m concepts,
		// and no cursor below d means no other concept can contribute.
		atDoc = atDoc[:0]
		for _, cu := range alive {
			if cu.doc == d {
				atDoc = append(atDoc, cu)
			}
		}
		bound := math.Inf(1)
		if bounding {
			scratch = scratch[:0]
			for _, cu := range atDoc {
				scratch = append(scratch, cu.maxAt())
			}
			bound = ub.bound(scratch, minMatch)
			if ub.failed {
				// The bound panicked mid-walk: the rest of this union
				// runs exhaustively, another silent-degradation case
				// worth a counter tick.
				bounding = false
				bound = math.Inf(1)
				e.counters.unionUnpruned.Add(1)
			}
		}
		res.Candidates++
		e.counters.unionCandidates.Add(1)
		if bound < flushFloor.bar(d) {
			// Pivot skip: the matched cursors' aggregate bound cannot
			// outrank the kept entry, so d is pruned before a single
			// match list is assembled — and the walk may clear a whole
			// block range in the same move.
			pruned.Add(1)
			e.counters.prunedDocs.Add(1)
			e.counters.pivotSkips.Add(1)
			e.advanceUnion(qs, &alive, atDoc, d)
			continue
		}
		// Surviving candidate: ship one empty slot per matched concept;
		// a worker fills them (fillLists).
		var mask uint64
		for _, cu := range atDoc {
			mask |= 1 << uint(cu.ci)
			cu.mark()
		}
		if len(slab) < len(atDoc) {
			slab = make(match.Lists, dispatchChunk*len(cds))
		}
		chunk = append(chunk, docJob{doc: d, bound: bound, orig: bound, mask: mask, lists: slab[:len(atDoc):len(atDoc)]})
		slab = slab[len(atDoc):]
		if len(chunk) == dispatchChunk && !ship() {
			break pivots
		}
		seekUnion(e, qs, &alive, atDoc, d+1)
	}
	if len(chunk) > 0 {
		ship()
	}
	close(jobs)
	wg.Wait()

	e.countSkippedBlocks(cds)

	res.Docs = top.results()
	res.Evaluated = int(evaluated.Load())
	res.Pruned = int(pruned.Load())
	return e.finish(qs, res, start)
}

// advanceUnion moves the matched cursors past a skipped pivot d — and
// past the whole remaining block range in the same seek. Over the
// range (d, jumpEnd], with jumpEnd capped by every matched cursor's
// block end and by the first unmatched cursor's position, no other
// concept can join and the matched cursors' block maxima are the very
// upper bounds d was just rejected on. A bar only rises with the
// document id, so every document in the range loses a fortiori: the
// walk seeks straight to jumpEnd+1 without confirming membership of
// anything in between — whole blocks pass with their match areas, and
// even their document directories, untouched.
func (e *Engine) advanceUnion(qs *queryState, alive *[]*unionCursor, atDoc []*unionCursor, d int) {
	jumpEnd := math.MaxInt
	for _, cu := range *alive {
		if cu.doc > d && cu.doc-1 < jumpEnd {
			jumpEnd = cu.doc - 1
		}
	}
	for _, cu := range atDoc {
		if last := cu.cd.blocks.bt.Infos[cu.blk].LastDoc; last < jumpEnd {
			jumpEnd = last
		}
	}
	seekUnion(e, qs, alive, atDoc, jumpEnd+1)
}

// seekUnion advances every cursor in atDoc to the first document
// ≥ target, compacting exhausted cursors out of alive.
func seekUnion(e *Engine, qs *queryState, alive *[]*unionCursor, atDoc []*unionCursor, target int) {
	dropped := false
	for _, cu := range atDoc {
		doc, ok := cu.seek(e, qs, target)
		if !ok {
			cu.doc = -1
			dropped = true
			continue
		}
		cu.doc = doc
	}
	if !dropped {
		return
	}
	live := (*alive)[:0]
	for _, cu := range *alive {
		if cu.doc >= 0 {
			live = append(live, cu)
		}
	}
	*alive = live
}

// mthSmallestDoc returns the m-th smallest current document over the
// alive cursors (1 ≤ m ≤ len). Queries hold at most 64 cursors, so a
// bounded insertion scan beats sorting machinery.
func mthSmallestDoc(alive []*unionCursor, m int) int {
	var buf [8]int
	small := buf[:0]
	if m > len(buf) {
		small = make([]int, 0, m)
	}
	for _, cu := range alive {
		d := cu.doc
		switch {
		case len(small) < m:
			small = append(small, d)
		case d < small[m-1]:
			small[m-1] = d
		default:
			continue
		}
		for i := len(small) - 1; i > 0 && small[i-1] > small[i]; i-- {
			small[i-1], small[i] = small[i], small[i-1]
		}
	}
	return small[m-1]
}
