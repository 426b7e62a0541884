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
// are merged; an unarmed kernel merges without screening.
type eventStream struct {
	events []match.Event
	terms  []termScan // one per list

	armed bool // floor is finite: the screen may cut
	floor float64
	cut   bool // the last Join was cut by the screen

	cuts []cutSlot // cutWidth's memo, made on first use

	// A kernel lives for one query, and few queries have more terms:
	// their scan state needs no allocation of its own.
	inline [8]termScan
}

// termScan is one list's cursor, with the location of its next match
// cached beside it so the scan for the smallest stays within one small
// array: during load the merge's, during screen the head sweep's.
type termScan struct {
	loc, pos, n int     // next match's location and index; the list's length
	smax        float64 // screen: the list's largest match score; a NaN never is
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

// screen reads the lists, unmerged, for the window screen: wmin, the
// smallest window holding one match of every term, and the sum over
// terms of g_j of the list's maximum score — in term order — with the
// sum of their magnitudes, the form scorefn's window caps take. It
// clears the cut. ok is false when the instance is not complete, or
// when a list is not in location order, which the sweep relies on. A g
// that is NaN or infinite carries into the cap, which then cuts
// nothing.
//
// One pass per list takes its maximum score and checks its order; the
// comparisons are the ones a pass over the merged events would make,
// list by list, so the maximum is the same float to the bit (a -0 and
// a +0 included). Then one sweep over the lists' heads finds wmin:
// every window [lo, hi] holding one match of each term is at least as
// wide as the one whose matches are, for each term, its first at or
// after lo; so record max head − min head, advance the list holding the
// smallest head, and stop when that list runs out (or the window is
// empty: none is narrower). This is the merged pass's wmin because a
// merge of the lists is in location order exactly when every list is,
// and the smallest range holding one element of every list is what
// that pass computes.
func (s *eventStream) screen(lists match.Lists, memo *gMemo) (wmin int, gsum, mag float64, ok bool) {
	if !s.scan(lists) {
		return 0, 0, 0, false
	}
	terms := s.terms
	hi := math.MinInt
	for j, l := range lists {
		smax, prev := math.Inf(-1), l[0].Loc
		for i := range l {
			m := &l[i]
			if m.Loc < prev {
				return 0, 0, 0, false
			}
			prev = m.Loc
			if m.Score > smax {
				smax = m.Score
			}
		}
		terms[j] = termScan{loc: l[0].Loc, n: len(l), smax: smax}
		hi = max(hi, l[0].Loc)
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
	for j := range terms {
		g := memo.g(j, terms[j].smax)
		gsum += g
		mag += math.Abs(g)
	}
	return wmin, gsum, mag, true
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
