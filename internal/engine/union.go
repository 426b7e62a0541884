package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// The candidate walk: every query — AND, OR and m-of-n alike — is
// evaluated by one WAND-style pivot loop over
// Fagin-threshold bounds, at the query's resolved m (n for AND). The
// walk repeatedly takes the m-th smallest cursor position as the
// pivot: cursors below it can never assemble m matches at their
// current documents, so they seek forward; once none sit below the
// pivot, at least m cursors sit exactly at the minimum — a confirmed
// candidate. At m = n the pivot is the largest position, and the walk
// is a leapfrog intersection. A candidate's score bound is the
// kernel's cap (join.UpperBounded) over the matched concepts' exact
// maxima on it: the disjunctive cap at m < n, the conjunctive one at
// m = n, where every candidate matches every concept. A pivot is
// joined over all of its matched lists, so at m < n the conjunctive
// cap over exactly those lists bounds it too, and it is skipped when
// either cap ranks strictly below the k-th kept entry
// (floorEntry.bar: below its score, or tied with it on a larger
// document id — a tie the pivot would still win on id never prunes).
// A skipped pivot merges not a single match list, and when the
// disjunctive cap skipped it with every matched concept at its largest
// weight the walk jumps the matched cursors up to the next unmatched
// one in the same seek (see advanceUnion); at m = n that jump ends the
// walk. The walk is id-ordered, so once the heap holds k documents at
// the kernel's cap every later pivot has lost its tie already: that is
// where Fagin's threshold (k objects with grade at least the
// threshold) stops the walk. A pivot the cache rung cuts is dropped
// too; one that survives has its lists merged straight from the
// cursors' stem positions and is joined on the spot.
//
// The walk runs in parallel: Config.Workers walkers per query, the
// calling goroutine one of them, each claiming document-id ranges in
// ascending order and running the pivot loop over each range with its
// own cursors and kernel (walker). They share only the top-k heap and
// the range counter.
//
// Soundness (DESIGN.md "Disjunctive retrieval & WAND soundness"): the
// per-concept maxima dominate every match score the document can
// contribute, the bound dominates the join over any subset of ≥ m
// matched lists, and the kept entry only improves in rank order — so a
// pivot skipped against today's entry is rejected a fortiori by every
// later one, whichever walker raised it. That is Fagin's threshold
// argument, and what lets any walker prune against the shared heap at
// any time. The differential matrix (internal/refrank/refranktest)
// holds the pruned walk bitwise-identical to internal/refrank's
// exhaustive ranking.

// QueryMode selects how many of a query's concepts a candidate
// document must contain.
type QueryMode int

const (
	// ModeAND (the zero value) requires every concept: the walk at
	// m = n, the engine's historical behavior.
	ModeAND QueryMode = iota
	// ModeOR requires at least one concept (ranked union); combine
	// with Query.MinMatch for m-of-n weak-AND semantics. Concepts
	// absent from the corpus degrade the query to its surviving terms
	// instead of emptying the result.
	ModeOR
)

// rangesPerWalker is how many document-id ranges the walk cuts a
// query's span into per walker: enough that a walker whose ranges
// confirm few candidates takes more of them, few enough that each
// range's cursor seeks stay a small share of its walk.
const rangesPerWalker = 8

// walkState is what one query's walkers share: the query, its concepts
// and top-k heap, the id ranges — nranges of width documents from lo,
// the last ending at hi — with the counter they are claimed from, and
// the walkers' tally and cancellation: each walker adds its own once,
// under mu, when it exits.
type walkState struct {
	qs        *queryState
	factory   KernelFactory
	cds       []*conceptData
	nstems    int
	minMatch  int
	top       *topK
	lo, hi    int
	width     int
	nranges   int
	next      atomic.Int64
	wg        sync.WaitGroup
	mu        sync.Mutex
	tally     Tally
	cancelled bool
}

// walk evaluates a query: candidates are documents matching at least
// minMatch concepts, scored by the kernel over their matched lists
// only (compacted in concept order).
func (e *Engine) walk(qs *queryState, q Query, cds []*conceptData, minMatch, k int, start time.Time) *Result {
	res := &Result{}

	// The query's document span, [lo, hi), over the stems of every
	// living concept. A failed concept (corrupt postings — the query is
	// already Degraded) and an unknown concept (no postings at all)
	// alike contribute no documents: a union degrades to the surviving
	// terms instead of returning nothing, which is the point of
	// disjunctive evaluation, and an AND query is left with fewer
	// concepts than it needs.
	s := &walkState{qs: qs, factory: q.Join, cds: cds, minMatch: minMatch, lo: math.MaxInt}
	living := 0
	for _, cd := range cds {
		s.nstems += len(cd.stems)
		lives := false
		for _, st := range cd.stems {
			if n := st.Arrays.Len(); n > 0 {
				s.lo, s.hi, lives = min(s.lo, st.Arrays.Doc(0)), max(s.hi, st.Arrays.Doc(n-1)+1), true
			}
		}
		if lives {
			living++
		}
	}
	// Fewer surviving concepts than the match requirement: no document
	// can qualify. The answer is empty and complete (Degraded when a
	// concept failed rather than being absent).
	if living < minMatch {
		res.Docs = []DocResult{}
		return e.finish(qs, res, start)
	}

	// One range at one worker, so no goroutine starts; otherwise
	// rangesPerWalker per worker, at least one document wide each.
	s.top, s.nranges = newTopK(k, q.Floor), 1
	if e.workers > 1 {
		s.nranges = min(e.workers*rangesPerWalker, s.hi-s.lo)
	}
	s.width = (s.hi - s.lo) / s.nranges
	if s.width*s.nranges < s.hi-s.lo {
		s.width++
	}
	walkers := min(e.workers, s.nranges)
	s.wg.Add(walkers - 1)
	for i := 1; i < walkers; i++ {
		go func() {
			defer s.wg.Done()
			s.run()
		}()
	}
	s.run()
	s.wg.Wait()

	t := &qs.tally
	t.Add(s.tally)
	// A query counts once however many of its walkers ran unpruned.
	t.UnionUnpruned = min(t.UnionUnpruned, 1)
	qs.cancelled = s.cancelled
	res.Docs = s.top.results()
	return e.finish(qs, res, start)
}

// walker is one walker's state: its cursors over the shared, read-only
// stem arrays, its kernel and the bounder wrapping that kernel's cap,
// its floor snapshot, its scratch, and its tally.
type walker struct {
	*walkState
	t        Tally
	kern     workerKernel
	ub       bounder
	bounding bool       // ub wraps the kernel's cap
	floor    floorEntry // refreshed every 32 steps and after each offer
	steps    int
	done     <-chan struct{}

	curs    []conceptCursor  // doc is −1 once exhausted
	alive   []*conceptCursor // cursors with documents left, in concept order
	atDoc   []*conceptCursor // the cursors standing on the pivot
	atSigs  []join.Sig       // their signatures there
	small   []int            // mthSmallestDoc's scratch
	scratch []match.List     // one merged list per matched concept
	lists   match.Lists
	at      []index.StemAt
}

// run is one walker: it claims ranges in ascending order until none is
// left or the query's context ends, walks each, and adds its tally to
// the query's as it exits.
func (s *walkState) run() {
	w := s.newWalker()
	stopped := false
	for !stopped {
		r := int(s.next.Add(1) - 1)
		if r >= s.nranges {
			break
		}
		beg := s.lo + r*s.width
		end := s.hi
		if end-beg > s.width {
			end = beg + s.width
		}
		more, ok := w.walkRange(beg, end)
		if !more {
			// Fewer than minMatch of this walker's cursors have documents
			// left past end: every range not yet claimed lies above it, so
			// none holds a document that can outrank the floor (see
			// advanceUnion), and no walker need claim one.
			s.next.Store(int64(s.nranges))
		}
		stopped = !ok
	}
	s.mu.Lock()
	s.tally.Add(w.t)
	s.cancelled = s.cancelled || stopped
	s.mu.Unlock()
}

// cancelled reports whether the query's context has ended. It is a
// non-blocking receive, where ctx.Err() locks a mutex every walker
// shares.
func (w *walker) cancelled() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// newWalker builds a walker: its cursors, all carved off one slab with
// their stem positions; its scratch; and its kernel, whose cap the
// bounder wraps. Without a cap every pivot carries a +Inf bound and
// the loop degenerates to the exhaustive walk, which is always sound.
func (s *walkState) newWalker() *walker {
	n := len(s.cds)
	w := &walker{walkState: s, done: s.qs.ctx.Done(), floor: s.top.entry(),
		curs: make([]conceptCursor, n), atSigs: make([]join.Sig, 0, n),
		scratch: make([]match.List, n), lists: make(match.Lists, n),
		small: make([]int, s.minMatch)}
	ptrs := make([]*conceptCursor, 2*n)
	w.alive, w.atDoc = ptrs[:0:n], ptrs[n:n]
	pos := make([]stemPos, s.nstems)
	for ci, cd := range s.cds {
		w.curs[ci] = newCursor(cd, pos)
		pos = pos[len(cd.stems):]
	}
	w.ub.t = &w.t
	w.kern = buildKernel(s.factory, &w.t)
	w.bounding = w.kern.Kernel != nil && w.ub.wrap(w.kern)
	if !w.bounding {
		// A query walked exhaustively: silent degradation is an
		// operational trap, so surface it in Stats().UnionUnpruned.
		w.t.UnionUnpruned++
	}
	return w
}

// walkRange runs the pivot loop over the documents [beg, end); it ends
// when the pivot reaches end. more is false when fewer than minMatch
// of the walker's cursors have documents left; ok is false when the
// query's context ended first.
//
// The cursors carry over from the walker's previous range, and
// advanceUnion may have carried them past that range's end: every
// document they passed is dominated — its bound is at most a skipped
// pivot's, and bars only rise, with the document id and over time — so
// this range may start past them. A tie that straddles a range
// boundary is decided per document by floorEntry.bar: a walker in a low
// range still admits a smaller-id tie after one in a high range has
// filled the heap.
func (w *walker) walkRange(beg, end int) (more, ok bool) {
	w.alive = w.alive[:0]
	for i := range w.curs {
		cu := &w.curs[i]
		if _, live := cu.seek(beg); live {
			w.alive = append(w.alive, cu)
		} else {
			cu.doc = -1
		}
	}
	for len(w.alive) >= w.minMatch {
		if w.steps&31 == 0 {
			// Poll the context and refresh the floor on a coarse stride.
			if w.cancelled() {
				return true, false
			}
			w.floor = w.top.entry()
		}
		w.steps++
		d := mthSmallestDoc(w.alive, w.minMatch, w.small)
		if d >= end {
			return true, true
		}
		progressed := false
		for i := 0; i < len(w.alive); {
			cu := w.alive[i]
			if cu.doc < d {
				progressed = true
				if _, live := cu.seek(d); !live {
					cu.doc = -1
					w.alive = append(w.alive[:i], w.alive[i+1:]...)
					continue
				}
			}
			i++
		}
		if !progressed {
			w.pivot(d)
		}
	}
	return false, true
}

// pivot takes an aligned pivot d — the minimum position, with at least
// minMatch cursors exactly on it, so d provably matches ≥ m concepts,
// and no cursor below d means no other concept can contribute — to a
// skip, a rung cut or a join, and moves the walk past it.
func (w *walker) pivot(d int) {
	t := &w.t
	w.atDoc, w.atSigs = w.atDoc[:0], w.atSigs[:0]
	for _, cu := range w.alive {
		if cu.doc == d {
			w.atDoc, w.atSigs = append(w.atDoc, cu), append(w.atSigs, cu.sig)
		}
	}
	t.UnionCandidates++
	if w.kern.Kernel == nil && !w.rebuild() {
		w.qs.fail()
		seekUnion(&w.alive, w.atDoc, d+1)
		return
	}
	bar := w.floor.bar(d)
	if w.bounding {
		switch bound := w.ub.boundSigs(w.atSigs, w.minMatch); {
		case math.IsInf(bound, 1):
			// No cap: a disjunctive one where the scoring function is
			// not term-exchangeable, or the cap panicked. The rest of
			// this walker's walk runs exhaustively, another
			// silent-degradation case worth a counter tick. (An
			// overflowing cap is +Inf too; joining every later pivot is
			// sound all the same.)
			w.bounding = false
			t.UnionUnpruned++
		case bound < bar:
			// Pivot skip: the matched concepts' aggregate bound cannot
			// outrank the kept entry, so d is pruned before a single
			// match list is merged — and the walk may clear a whole
			// range in the same move.
			t.PrunedDocs++
			t.PivotSkips++
			advanceUnion(&w.alive, w.atDoc, w.atSigs, d)
			return
		case len(w.atSigs) > w.minMatch && w.ub.boundSigs(w.atSigs, len(w.atSigs)) < bar:
			// The conjunctive cap over exactly the matched lists, which
			// d would be joined over, cannot outrank the kept entry
			// either. It does not cover the documents advanceUnion
			// would jump — they may match fewer concepts — so the walk
			// steps to d+1.
			t.PrunedDocs++
			t.PivotSkips++
			seekUnion(&w.alive, w.atDoc, d+1)
			return
		}
	}
	w.join(d, bar)
	seekUnion(&w.alive, w.atDoc, d+1)
}

// join runs the cache rung on d, then merges d's lists from the
// cursors' stem positions into the walker's scratch, joins them under
// panic isolation with the kernel armed with bar, and offers the
// result to the shared top-k heap. A document whose lists' signatures
// prove its every window too wide for the kernel's cut width is pruned
// like a bound below its bar, its lists never merged. A panic poisons
// the kernel, which the next pivot rebuilds.
func (w *walker) join(d int, bar float64) {
	t := &w.t
	cut, panicked := rungCut(w.kern, bar, w.atSigs)
	if cut {
		t.PrunedDocs++
		return
	}
	var set match.Set
	var score float64
	var ok bool
	if !panicked {
		lists := w.lists[:len(w.atDoc)]
		for s, cu := range w.atDoc {
			w.at = w.at[:0]
			for _, p := range cu.pos {
				if p.doc == d {
					w.at = append(w.at, index.StemAt{Arrays: p.arr, I: p.i, Score: p.w})
				}
			}
			w.scratch[s] = index.AppendConceptList(w.scratch[s][:0], w.at)
			lists[s] = w.scratch[s]
		}
		set, score, ok, panicked = safeJoin(w.kern, bar, lists)
	}
	t.JoinsRun++
	if panicked {
		t.JoinPanics++
		w.qs.fail()
		w.kern = workerKernel{} // poisoned scratch: rebuild before reuse
		return
	}
	if fk := w.kern.floored; fk != nil && fk.FloorCut() {
		t.FloorCutJoins++
		if fk.WindowCut() {
			t.WindowCutJoins++
		}
	}
	if dk := w.kern.valid; dk != nil {
		t.KernelInvocations += uint64(dk.Invocations())
		if dk.Capped() {
			// No trustworthy score: like a document past the deadline,
			// this one stays unevaluated (Partial).
			t.DedupCapped++
			return
		}
	}
	t.DocsEvaluated++
	if ok && !math.IsNaN(score) {
		w.top.offer(d, score, set)
		w.floor = w.top.entry()
	}
}

// rebuild replaces the walker's kernel — a panic poisoned it, or its
// build panicked — and points the bounder at the new one; false means
// the factory panicked again, and the pivot at hand fails.
func (w *walker) rebuild() bool {
	if w.kern = buildKernel(w.factory, &w.t); w.kern.Kernel == nil {
		return false
	}
	if w.bounding && !w.ub.wrap(w.kern) {
		w.bounding = false
		w.t.UnionUnpruned++
	}
	return true
}

// advanceUnion moves the matched cursors past a skipped pivot d. When
// every matched concept stood on d at its largest weight (atSigs[s].Max
// is its top), d was rejected on the largest maxima those concepts
// have anywhere, so the walk jumps them past every document before the
// first unmatched cursor's: over that range no other concept can join,
// each document's bound is at most d's, and a bar only rises with the
// document id, so every document there loses a fortiori — and the seek
// confirms none of them. Otherwise the matched cursors step to d+1.
func advanceUnion(alive *[]*conceptCursor, atDoc []*conceptCursor, atSigs []join.Sig, d int) {
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
func seekUnion(alive *[]*conceptCursor, atDoc []*conceptCursor, target int) {
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
func mthSmallestDoc(alive []*conceptCursor, m int, small []int) int {
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
