package engine

import (
	"math"
	"time"

	"bestjoin/internal/join"
)

// The candidate walk: every query the pair tier does not serve — AND,
// OR and m-of-n alike — is evaluated by one WAND-style pivot loop over
// Fagin-threshold bounds, at the query's resolved m (n for AND). The
// walk repeatedly takes the m-th smallest cursor position as the
// pivot: cursors below it can never assemble m matches at their
// current documents, so they seek forward; once none sit below the
// pivot, at least m cursors sit exactly at the minimum — a confirmed
// candidate. At m = n the pivot is the largest position, and the walk
// is a leapfrog intersection. A candidate's score bound is the
// kernel's cap (join.UpperBounded) over the matched concepts' exact
// maxima on it: the disjunctive cap at m < n, the conjunctive one at
// m = n, where every candidate matches every concept. A pivot whose
// bound ranks strictly below the k-th kept entry (floorEntry.bar:
// below its score, or tied with it on a larger document id — a tie the
// pivot would still win on id never prunes) is skipped without merging
// a single match list, and when every matched concept stood at its
// largest weight the walk jumps the matched cursors up to the next
// unmatched one in the same seek (see advanceUnion); at m = n that
// jump ends the walk. The walk is id-ordered, so once the heap holds k
// documents at the kernel's cap every later pivot has lost its tie
// already: that is where Fagin's threshold (k objects with grade at
// least the threshold) stops the walk. A pivot the cache rung cuts is
// dropped too. Documents that survive go to the shared worker pool,
// which merges their lists only if they also survive the re-check at
// evaluation time.
//
// Soundness (DESIGN.md "Disjunctive retrieval & WAND soundness"): the
// per-concept maxima dominate every match score the document can
// contribute, the bound dominates the join over any subset of ≥ m
// matched lists, and the kept entry only improves in rank order — so a
// pivot skipped against today's entry is rejected a fortiori by every
// later one. The differential matrix (internal/refrank/refranktest)
// holds the pruned walk bitwise-identical to internal/refrank's
// exhaustive ranking.

// QueryMode selects how many of a query's concepts a candidate
// document must contain.
type QueryMode int

const (
	// ModeDefault defers to the engine's configured Config.Mode (which
	// itself defaults to ModeAND).
	ModeDefault QueryMode = iota
	// ModeAND requires every concept: the walk at m = n, the engine's
	// historical behavior.
	ModeAND
	// ModeOR requires at least one concept (ranked union); combine
	// with Query.MinMatch for m-of-n weak-AND semantics. Concepts
	// absent from the corpus degrade the query to its surviving terms
	// instead of emptying the result.
	ModeOR
)

// unionCursor wraps a conceptCursor for the candidate walk: ci is the
// concept's position in the query (the bit it owns in docJob.mask);
// doc is −1 once exhausted.
type unionCursor struct {
	conceptCursor
	ci int
}

// walk evaluates a query: candidates are documents matching at least
// minMatch concepts, scored by the kernel over their matched lists
// only (compacted in concept order).
func (e *Engine) walk(qs *queryState, q Query, cds []*conceptData, minMatch, k int, start time.Time) *Result {
	res := &Result{}

	// One cursor per living concept, all carved off one slab with their
	// stem positions. A failed concept (corrupt postings — the query is
	// already Degraded) and an unknown concept (no postings at all: no
	// stems, exhausted at the first seek) alike contribute no cursor: a
	// union degrades to the surviving terms instead of returning
	// nothing, which is the point of disjunctive evaluation, and an AND
	// query is left with fewer cursors than it needs.
	nstems := 0
	for _, cd := range cds {
		nstems += len(cd.stems)
	}
	curs, pos := make([]unionCursor, len(cds)), make([]stemPos, nstems)
	// alive and atDoc, the cursors standing on a pivot, share one buffer.
	buf := make([]*unionCursor, 2*len(cds))
	alive, atDoc := buf[:0:len(cds)], buf[len(cds):len(cds)]
	for ci, cd := range cds {
		cu := &curs[ci]
		cu.conceptCursor, cu.ci = newCursor(cd, pos), ci
		pos = pos[len(cd.stems):]
		if _, ok := cu.seek(0); ok {
			alive = append(alive, cu)
		}
	}
	// Fewer surviving concepts than the match requirement: no document
	// can qualify. The answer is empty and complete (Degraded when a
	// concept failed rather than being absent).
	if len(alive) < minMatch {
		res.Docs = []DocResult{}
		return e.finish(qs, res, start)
	}

	// Probe the kernel for its cap. Without one — or with pruning
	// disabled — every pivot carries a +Inf bound and the loop
	// degenerates to the exhaustive walk, which is always sound (and is
	// the differential baseline's evaluation order). A pivot matching
	// exactly m concepts — every pivot at m = n — takes the conjunctive
	// cap (scorefn.ListMaxCap), which a term-weighted scoring function
	// has where it has no disjunctive one.
	t := &qs.tally
	bounding := e.prune
	var ub *bounder
	if bounding {
		if ub = bounderFor(q.Join, t); ub == nil {
			bounding = false
		}
	}
	if e.prune && !bounding {
		// A pruning engine running this query exhaustively: silent
		// degradation is an operational trap, so surface it in
		// Stats().UnionUnpruned.
		t.UnionUnpruned++
	}

	// The worker pool starts as the walk ships its first chunks
	// (chunker.ship), so a walk that confirms nothing starts none.
	p := &pool{e: e, qs: qs, factory: q.Join, cds: cds, top: newTopK(k, q.Floor),
		jobs: make(chan []docJob, max(1, e.workers*e.queue/dispatchChunk))}
	ch := chunker{pool: p, idle: e.workers}

	// The pivot walk. The jobs' stem counts and signatures are carved
	// off slabs that are replaced, never rewound, when they run out
	// (slab), and their stem locations appended to one buffer, sized for
	// a chunk of jobs up front: the workers may still hold shipped ones.
	var nlocSlab []int32
	var sigSlab []join.Sig
	locBuf := make([]stemLoc, 0, min(dispatchChunk*nstems, 1<<12))
	flushFloor := p.top.entry()
	var smallBuf [8]int
	small := smallBuf[:]
	if minMatch > len(smallBuf) {
		small = make([]int, minMatch)
	}
	steps := 0
pivots:
	for len(alive) >= minMatch {
		if steps&31 == 0 {
			// Poll the context and refresh the dispatcher's floor on a
			// coarse stride.
			if qs.ctx.Err() != nil {
				qs.cancelled = true
				break pivots
			}
			flushFloor = p.top.entry()
		}
		steps++
		d := mthSmallestDoc(alive, minMatch, small)
		progressed := false
		for i := 0; i < len(alive); {
			cu := alive[i]
			if cu.doc < d {
				progressed = true
				if _, ok := cu.seek(d); !ok {
					alive = append(alive[:i], alive[i+1:]...)
					continue
				}
			}
			i++
		}
		if progressed {
			continue
		}
		// Aligned: d is the minimum position and at least minMatch
		// cursors sit exactly on it — d provably matches ≥ m concepts,
		// and no cursor below d means no other concept can contribute.
		// Their signatures go straight into the signature slab, which
		// moves on only if d ships.
		if len(sigSlab) < len(alive) {
			nlocSlab, sigSlab = slab[int32](len(cds), ch.shipped), slab[join.Sig](len(cds), ch.shipped)
		}
		atDoc = atDoc[:0]
		atSigs := sigSlab[:0]
		for _, cu := range alive {
			if cu.doc == d {
				atDoc, atSigs = append(atDoc, cu), append(atSigs, cu.sig)
			}
		}
		bound := math.Inf(1)
		if bounding {
			bound = ub.boundSigs(atSigs, minMatch)
			if math.IsInf(bound, 1) {
				// No cap: a disjunctive one where the scoring function is
				// not term-exchangeable, or the cap panicked. The rest of
				// this walk runs exhaustively, another silent-degradation
				// case worth a counter tick. (An overflowing cap is +Inf
				// too; joining every later pivot is sound all the same.)
				bounding = false
				t.UnionUnpruned++
			}
		}
		t.UnionCandidates++
		bar := flushFloor.bar(d)
		if bound < bar {
			// Pivot skip: the matched concepts' aggregate bound cannot
			// outrank the kept entry, so d is pruned before a single
			// match list is merged — and the walk may clear a whole
			// range in the same move.
			t.PrunedDocs++
			t.PivotSkips++
			advanceUnion(&alive, atDoc, atSigs, d)
			continue
		}
		if bounding && ub.cuts(atSigs, bar) {
			t.PrunedDocs++
			seekUnion(&alive, atDoc, d+1)
			continue
		}
		// Surviving candidate: ship one empty slot per matched concept;
		// a worker fills them (fillLists).
		n := len(atDoc)
		var mask uint64
		begin := len(locBuf)
		for s, cu := range atDoc {
			mask |= 1 << uint(cu.ci)
			nlocSlab[s] = cu.locs(&locBuf)
		}
		// A later append may move locBuf; this job keeps the backing its
		// locations were written to, which nothing writes again.
		jb := docJob{doc: d, bound: bound, mask: mask,
			locs: locBuf[begin:len(locBuf):len(locBuf)], nlocs: nlocSlab[:n:n], sigs: atSigs[:n:n]}
		nlocSlab, sigSlab = nlocSlab[n:], sigSlab[n:]
		if !ch.add(jb, n) {
			qs.cancelled = true
			break pivots
		}
		seekUnion(&alive, atDoc, d+1)
	}
	if !ch.ship() {
		qs.cancelled = true
	}
	close(p.jobs)
	p.wg.Wait()
	t.Add(p.tally)

	res.Docs = p.top.results()
	return e.finish(qs, res, start)
}

// advanceUnion moves the matched cursors past a skipped pivot d. When
// every matched concept stood on d at its largest weight (atSigs[s].Max
// is its top), d was rejected on the largest maxima those concepts
// have anywhere, so the walk jumps them past every document before the
// first unmatched cursor's: over that range no other concept can join,
// each document's bound is at most d's, and a bar only rises with the
// document id, so every document there loses a fortiori — and the seek
// confirms none of them. Otherwise the matched cursors step to d+1.
func advanceUnion(alive *[]*unionCursor, atDoc []*unionCursor, atSigs []join.Sig, d int) {
	for s, cu := range atDoc {
		if atSigs[s].Max != cu.cd.top {
			seekUnion(alive, atDoc, d+1)
			return
		}
	}
	target := math.MaxInt
	for _, cu := range *alive {
		if cu.doc > d {
			target = min(target, cu.doc)
		}
	}
	seekUnion(alive, atDoc, target)
}

// seekUnion advances every cursor in atDoc to the first document
// ≥ target, compacting exhausted cursors out of alive.
func seekUnion(alive *[]*unionCursor, atDoc []*unionCursor, target int) {
	dropped := false
	for _, cu := range atDoc {
		if _, ok := cu.seek(target); !ok {
			cu.doc = -1
			dropped = true
		}
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
// alive cursors (1 ≤ m ≤ len), with small, of capacity at least m, as
// scratch. Queries hold at most 64 cursors, so a bounded insertion scan
// beats sorting machinery.
func mthSmallestDoc(alive []*unionCursor, m int, small []int) int {
	small = small[:0]
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
