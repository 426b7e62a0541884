package join

import (
	"math"
	"math/bits"

	"bestjoin/internal/match"
)

// eventStream is a kernel's loaded instance in merged form, and the
// window screen that decides whether the merge is worth making. load
// merges the lists once into a flat reused slice in exactly
// match.Merger's order (location, then term index, then list
// position); the kernel's dynamic program then iterates the slice
// instead of re-merging. A kernel armed with a top-k floor
// (join.Floored) first reads the unmerged lists (screen) for what a
// proximity-aware score cap needs — each list's maximum match score and
// the smallest window holding one match of every term — and drops a
// document whose cap (scorefn.CapWIN/MED) is strictly below the
// floor before merging it, running the program, or evaluating g for
// anything but the list maxima. Only documents the screen lets through
// are merged, and only after their lists are trimmed to the matches
// that can still be in a matchset reaching the floor (anchor); an
// unarmed kernel merges without screening.
type eventStream struct {
	events []match.Event
	terms  []termScan // one per list

	armed bool // floor is finite: the screen may cut
	floor float64
	cut   bool // the last Join was cut by the screen

	cuts []cutSlot // cutWidth's memo, made on first use

	// anchor's output: the trimmed lists' headers, and the matches of
	// those that are not one run of their list, copied. The input lists
	// are never written.
	trimmed match.Lists
	kept    []match.Match

	// A kernel lives for one query, and few queries have more terms:
	// their scan state and trimmed lists need no allocation of their own.
	inline        [8]termScan
	inlineTrimmed [8]match.List
}

// termScan is one list's cursor, with the location of its next match
// cached beside it so the scan for the smallest stays within one small
// array: during load the merge's, during screen the head sweep's.
type termScan struct {
	loc, pos, n int     // next match's location and index; the list's length
	smax        float64 // screen: the list's largest match score; a NaN never is
	smin        float64 // screen: the list's smallest match score, NaN once one is
}

// SetFloor arms the following Joins with a top-k floor (Floored). Only
// a finite floor arms the screen: -Inf, the floor of a heap still
// filling, cuts nothing anyway, and a NaN or +Inf floor disables it.
func (s *eventStream) SetFloor(floor float64) {
	s.floor, s.armed = floor, floor-floor == 0
}

// FloorCut reports whether the last Join returned ok == false because
// the window screen put the instance strictly below the floor.
func (s *eventStream) FloorCut() bool { return s.cut }

// WindowCut is FloorCut: the screen is these kernels' only cut.
func (s *eventStream) WindowCut() bool { return s.cut }

// cutBy records and reports whether bound, a cap on every score the
// loaded instance can produce, is strictly below the armed floor. An
// equal bound never cuts — the document may still win its doc-id
// tie-break — and neither does a NaN one.
func (s *eventStream) cutBy(bound float64) bool {
	s.cut = bound < s.floor
	return s.cut
}

// cutBelow records and reports whether score, the optimum of a program
// run on the lists anchor returned with bar, is a cut: strictly below
// bar.
func (s *eventStream) cutBelow(score, bar float64) bool {
	s.cut = score < bar
	return s.cut
}

// scan sizes the per-list cursors for lists and clears the cut. It
// reports false, sizing nothing, when the instance is not complete and
// so has no matchset.
func (s *eventStream) scan(lists match.Lists) bool {
	s.cut = false
	q := len(lists)
	if q == 0 {
		return false
	}
	for _, l := range lists {
		if len(l) == 0 {
			return false
		}
	}
	if cap(s.terms) < q {
		s.terms = s.inline[:]
		if q > len(s.inline) {
			s.terms = make([]termScan, q)
		}
	}
	s.terms = s.terms[:q]
	return true
}

// load starts a Join's program: it merges lists into s.events. It
// reports false, having merged nothing, when the instance is not
// complete.
func (s *eventStream) load(lists match.Lists) bool {
	if !s.scan(lists) {
		return false
	}
	terms := s.terms
	total := 0
	for j, l := range lists {
		terms[j] = termScan{loc: l[0].Loc, n: len(l)}
		total += len(l)
	}
	if cap(s.events) < total {
		// Well over the need: a query's documents differ in size, and
		// the kernel, which lives for one query, should not pay for
		// each larger one it meets.
		s.events = make([]match.Event, 0, max(2*total, 128))
	}
	s.events = s.events[:total]
	for n := range s.events {
		// The first smallest location found is the lowest term's:
		// Merger's tie-break.
		best, loc := -1, 0
		for j := range terms {
			if t := &terms[j]; t.pos < t.n && (best < 0 || t.loc < loc) {
				best, loc = j, t.loc
			}
		}
		t := &terms[best]
		l := lists[best]
		// Field by field: a composite literal is assembled on the stack
		// and copied over in wider moves, which stalls on every event.
		ev := &s.events[n]
		ev.Term, ev.Pos, ev.M = best, t.pos, l[t.pos]
		if t.pos++; t.pos < t.n {
			t.loc = l[t.pos].Loc
		}
	}
	return true
}

// maxima is the screen's pass over each list: it takes the list's
// largest and smallest match score (terms[j].smax, smin) and checks its
// order, and sums g_j over the maxima. The comparisons are the ones a
// pass over the merged events would make, list by list, so each maximum
// is the same float to the bit (a -0 and a +0 included). It clears the
// cut; ok is false when the instance is not complete or a list is not
// in location order.
func (s *eventStream) maxima(lists match.Lists, memo *gMemo) (gsum, mag float64, ok bool) {
	if !s.scan(lists) {
		return 0, 0, false
	}
	terms := s.terms
	for j, l := range lists {
		smax, smin, prev := math.Inf(-1), math.Inf(1), l[0].Loc
		for i := range l {
			m := &l[i]
			if m.Loc < prev {
				return 0, 0, false
			}
			prev = m.Loc
			if m.Score > smax {
				smax = m.Score
			}
			if m.Score < smin {
				smin = m.Score
			} else if m.Score != m.Score {
				smin = m.Score // nothing compares below a NaN: it stays
			}
		}
		terms[j].smax, terms[j].smin = smax, smin
		g := memo.g(j, smax)
		gsum += g
		mag += math.Abs(g)
	}
	return gsum, mag, true
}

// sweep returns wmin, the smallest window holding one match of every
// list, by one sweep over the lists' heads. The lists must be complete
// and in location order, and sized by scan. Every window [lo, hi]
// holding one match of each term is at least as wide as the one whose
// matches are, for each term, its first at or after lo; so record max
// head − min head, advance the list holding the smallest head, and stop
// when that list runs out (or the window is empty: none is narrower).
// This is the merged pass's wmin because a merge of the lists is in
// location order exactly when every list is, and the smallest range
// holding one element of every list is what that pass computes.
func (s *eventStream) sweep(lists match.Lists) (wmin int) {
	terms := s.terms
	hi := math.MinInt
	for j, l := range lists {
		t := &terms[j]
		t.loc, t.pos, t.n = l[0].Loc, 0, len(l)
		hi = max(hi, t.loc)
	}
	wmin = math.MaxInt
	for {
		low, lo := 0, terms[0].loc
		for j := 1; j < len(terms); j++ {
			if terms[j].loc < lo {
				low, lo = j, terms[j].loc
			}
		}
		if wmin = min(wmin, hi-lo); wmin == 0 {
			break
		}
		t := &terms[low]
		if t.pos++; t.pos == t.n {
			break
		}
		t.loc = lists[low][t.pos].Loc
		hi = max(hi, t.loc)
	}
	return wmin
}

// anchor is an armed kernel's window screen and anchor trim, run before
// its program. It returns the lists the program is to run on, and bar:
// an optimum of the program strictly below bar is a cut, not an answer.
// ok is false when the instance is cut already (FloorCut).
//
// The screen cuts an instance whose smallest window caps strictly below
// the floor. The trim keeps what can reach the floor: with w* the
// narrowest width whose cap, at the lists' maxima, is below the floor
// (cutAt, the cut width the cache rung also reads), every matchset at
// or above the floor spans less than w*; so each of its matches lies
// within w*−1 locations of its match in the anchor, the shortest list.
// Every other list keeps only such matches (trim); the anchor is kept
// whole. The trimmed instance's matchsets are a subset of the
// original's that holds every one at or above the floor, so its
// optimum is the original's, to the bit, whenever that reaches the
// floor. Otherwise it is below the floor and may be another matchset
// than the original's optimum: so it is a cut (bar), and a list the
// trim empties is a cut at once.
//
// The trim runs before the sweep, which then reads the trimmed lists:
// the caps fall as the window widens, so the screen cuts exactly when
// wmin ≥ w*; a window narrower than w* survives the trim, so the
// trimmed wmin is the original one whenever that is narrower than w*,
// and at least w* (or a list is empty) otherwise. The screen's verdict
// is the one it would reach on the whole lists.
//
// Nothing is trimmed where that argument does not hold: where the
// screen stands down (an incomplete instance, or a list out of location
// order), or where some g_j of a match score is NaN or infinite — the
// program's comparisons with a NaN do not find an optimum, and an
// infinite g makes sums NaN. G is increasing, so g_j finite at each
// list's smallest and largest score, with no score NaN, makes every
// match's g_j finite.
func (s *eventStream) anchor(lists match.Lists, memo *gMemo, c windowCapper) (_ match.Lists, bar float64, ok bool) {
	gsum, mag, ok := s.maxima(lists, memo)
	if !ok {
		return lists, math.Inf(-1), true
	}
	bar = math.Inf(-1)
	if s.finite(mag, memo) {
		if w, trims := s.cutAt(gsum, mag, s.floor, memo, c); trims {
			if lists, ok = s.trim(lists, w-1); !ok {
				s.cut = true
				return nil, 0, false
			}
			bar = s.floor
		}
	}
	if s.cutBy(c.windowCap(gsum, mag, s.sweep(lists))) {
		return nil, 0, false
	}
	return lists, bar, true
}

// finite reports whether every g_j of a match score in the lists maxima
// last read is finite: mag, the sum of the magnitudes at the maxima,
// and g_j at each list's smallest score.
func (s *eventStream) finite(mag float64, memo *gMemo) bool {
	if mag-mag != 0 {
		return false
	}
	for j := range s.terms {
		if g := memo.g(j, s.terms[j].smin); g-g != 0 {
			return false
		}
	}
	return true
}

// trim keeps, of every list but the shortest (the first shortest), the
// matches within r locations of one of the shortest list's; ok is false
// when that leaves a list empty. The lists must be complete and in
// location order. Each list is galloped over, once, interval by
// interval of the anchor's matches ± r, overlapping ones joined; a list
// whose kept matches are one run of it is resliced, and only one whose
// kept matches are several runs is copied, into s.kept. When r spans
// the whole instance nothing is trimmed, and lists itself comes back.
func (s *eventStream) trim(lists match.Lists, r int) (_ match.Lists, ok bool) {
	a, lo, hi, total := 0, math.MaxInt, math.MinInt, 0
	for j, l := range lists {
		if len(l) < len(lists[a]) {
			a = j
		}
		lo, hi = min(lo, l[0].Loc), max(hi, l[len(l)-1].Loc)
		total += len(l)
	}
	if hi-lo <= r {
		return lists, true
	}
	anchor := lists[a]
	if cap(s.trimmed) < len(lists) {
		s.trimmed = s.inlineTrimmed[:]
		if len(lists) > len(s.inlineTrimmed) {
			s.trimmed = make(match.Lists, len(lists))
		}
	}
	s.trimmed = s.trimmed[:len(lists)]
	s.kept = s.kept[:0]
	for j, l := range lists {
		if j == a {
			s.trimmed[j] = l
			continue
		}
		b0, e0, runs, start, p := 0, 0, 0, len(s.kept), 0
		for i := 0; i < len(anchor) && p < len(l); {
			x, y := anchor[i].Loc-r, anchor[i].Loc+r
			for i++; i < len(anchor) && anchor[i].Loc-r <= y+1; i++ {
				y = anchor[i].Loc + r
			}
			b := gallop(l, p, x)
			e := gallop(l, b, y+1)
			if p = e; b == e {
				continue
			}
			switch runs++; runs {
			case 1:
				b0, e0 = b, e
			case 2:
				if len(s.kept) == 0 && cap(s.kept) < total {
					// Room for every list's whole length: no later list
					// of this instance moves the copies made before it.
					s.kept = make([]match.Match, 0, max(2*total, 128))
				}
				s.kept = append(append(s.kept, l[b0:e0]...), l[b:e]...)
			default:
				s.kept = append(s.kept, l[b:e]...)
			}
		}
		switch runs {
		case 0:
			return nil, false
		case 1:
			s.trimmed[j] = l[b0:e0:e0]
		default:
			s.trimmed[j] = s.kept[start:len(s.kept):len(s.kept)]
		}
	}
	return s.trimmed, true
}

// gallop returns the first index at or after i of l, a list in location
// order, whose location is at least loc (len(l) when there is none):
// steps doubling from i, then a binary search of the last step.
func gallop(l match.List, i, loc int) int {
	hi := i
	for step := 1; hi < len(l) && l[hi].Loc < loc; step <<= 1 {
		i, hi = hi+1, hi+step
	}
	hi = min(hi, len(l))
	for i < hi {
		if mid := int(uint(i+hi) >> 1); l[mid].Loc < loc {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	return i
}

// Sig is one match list's location signature, the input of the cache
// rung that screens a document before its join (Floored.CutWidth and
// Apart). It is made once, when a document's list is decoded, and read
// by every later query:
//   - Mask has bit b set when a match's location falls in the bucket
//     [8b, 8b+8); bucket 0 also takes every location below 0 and bucket
//     63 every location from 504 on, so the bucket is monotone in the
//     location and two locations d apart are at most ⌈d/8⌉ buckets
//     apart, over the whole location range.
//   - Max is the list's largest match score, found by the comparisons
//     screen makes, in the same order: the same float to the bit.
//
// A zero Mask is no signature — the list is empty or not in location
// order — and the rung never cuts on it.
type Sig struct {
	Mask uint64
	Max  float64
}

// Signature computes l's Sig.
func Signature(l match.List) Sig {
	smax, mask, sorted, prev := math.Inf(-1), uint64(0), true, math.MinInt
	for i := range l {
		m := &l[i]
		sorted = sorted && m.Loc >= prev
		prev = m.Loc
		if m.Score > smax {
			smax = m.Score
		}
		mask |= 1 << min(max(m.Loc>>3, 0), 63)
	}
	if !sorted {
		mask = 0
	}
	return Sig{Mask: mask, Max: smax}
}

// Apart reports whether sigs prove that every window holding one match
// of each list is at least w wide, so that a cap falling with the
// window puts all of the instance's matchsets at or below the cap at w.
// A window [lo, lo+w−1] holds matches only in buckets b(lo) through
// b(lo)+r, r = ⌈(w−1)/8⌉; so b(lo) is in every list's mask shifted down
// by 0 to r buckets, and when the AND of those dilated masks is empty
// no such window exists. Every window is at least 0 wide. A zero mask
// proves nothing.
func Apart(sigs []Sig, w int) bool {
	r := min((w+6)/8, 63)
	acc := ^uint64(0)
	for _, s := range sigs {
		if s.Mask == 0 {
			return false
		}
		m := s.Mask
		// m covers the shifts [0, span) of the mask; double that up to r.
		for span := 1; span <= r; span *= 2 {
			m |= m >> min(span, r+1-span)
		}
		acc &= m
	}
	return len(sigs) > 0 && (w <= 0 || acc == 0)
}

// windowCapper is a screening kernel's window cap, scorefn.CapWIN
// or CapMED under its current scoring function.
type windowCapper interface {
	windowCap(gsum, mag float64, w int) float64
}

// maxWindow is the widest window two locations Decode accepts can span.
const maxWindow = 2 * match.MaxLocation

// cutMemoBits sizes the cut-width memo: a query's documents carry a few
// distinct maxima and the bar rises a few dozen times, so a few dozen
// (gsum, bar) pairs are live at once. On the bench harness's warm_and
// stream 64 slots miss 4.1 % of lookups — about what a fresh kernel per
// query must miss, 128 slots miss 4.0 % — and 8 slots miss 15 %.
const cutMemoBits = 6

// cutSlot is one remembered cut width, under the exact bits of its
// arguments and the g_j memo generation that computed gsum and mag.
type cutSlot struct {
	gsum, mag, bar uint64
	w              int
	ok             bool
	gen            uint32
}

// cutWidth is Floored.CutWidth for a kernel whose g_j transform is
// memo and whose window cap is c. It sums g_j(Max_j) in list order as
// screen does — the same gsum and mag to the bit — and looks the width
// up by the bits of (gsum, mag, bar), so the scoring function's F runs
// only when that triple is new. Like SetFloor, only a finite bar cuts.
func (s *eventStream) cutWidth(sigs []Sig, bar float64, memo *gMemo, c windowCapper) (int, bool) {
	if len(sigs) == 0 || bar-bar != 0 {
		return 0, false
	}
	memo.grow(len(sigs))
	gsum, mag := 0.0, 0.0
	for j := range sigs {
		g := memo.g(j, sigs[j].Max)
		gsum += g
		mag += math.Abs(g)
	}
	return s.cutAt(gsum, mag, bar, memo, c)
}

// cutAt is cutWidth for the sums gsum and mag of g_j over the lists'
// maxima, in list order, as maxima returns them: the memo lookup both
// the cache rung and the anchor trim make.
func (s *eventStream) cutAt(gsum, mag, bar float64, memo *gMemo, c windowCapper) (int, bool) {
	if s.cuts == nil {
		s.cuts = make([]cutSlot, 1<<cutMemoBits)
	}
	gb, mb, bb := math.Float64bits(gsum), math.Float64bits(mag), math.Float64bits(bar)
	slot := &s.cuts[(gb^bits.RotateLeft64(mb, 21)^bits.RotateLeft64(bb, 42))*0x9e3779b97f4a7c15>>(64-cutMemoBits)]
	if slot.gen != memo.gen || slot.gsum != gb || slot.mag != mb || slot.bar != bb {
		w, ok := narrowestCut(c, gsum, mag, bar)
		*slot = cutSlot{gsum: gb, mag: mb, bar: bb, w: w, ok: ok, gen: memo.gen}
	}
	return slot.w, slot.ok
}

// narrowestCut returns the narrowest window width whose cap is strictly
// below bar — galloping up from 0, then bisecting — or false when not
// even the widest window's is. The cap falls as the window widens, the
// premise of the window screen itself, so every wider window's cap is
// below bar too. The answer is exact either way: the cap at the width
// returned is below bar, and the cap one narrower is not.
func narrowestCut(c windowCapper, gsum, mag, bar float64) (int, bool) {
	below := func(w int) bool { return c.windowCap(gsum, mag, w) < bar }
	if below(0) {
		return 0, true
	}
	lo, hi := 0, 1 // the cap at lo is not below bar; at hi, to be found
	for !below(hi) {
		if hi == maxWindow {
			return 0, false
		}
		lo, hi = hi, min(2*hi, maxWindow)
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; below(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}
