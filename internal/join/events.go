package join

import (
	"math"

	"bestjoin/internal/match"
)

// eventStream is a kernel's loaded instance in merged form, and the
// window screen that form makes possible. load merges the lists once
// into a flat reused slice in exactly match.Merger's order (location,
// then term index, then list position); the kernel's dynamic program
// then iterates the slice instead of re-merging. A kernel armed with a
// top-k floor (join.Floored) first makes one linear pass over the
// slice (window) for what a proximity-aware score cap needs — each
// list's maximum match score and the smallest window holding one match
// of every term — and drops a document whose cap
// (scorefn.WindowCapWIN/MED) is strictly below the floor before
// running the program, or evaluating a single g_j, at all.
type eventStream struct {
	events []match.Event
	terms  []termScan // one per list

	armed bool // floor is finite: the screen may cut
	floor float64
	cut   bool // the last Join was cut by the screen

	// A kernel lives for one query, and few queries have more terms:
	// their scan state needs no allocation of its own.
	inline [8]termScan
}

// termScan is one list's state: during load its merge cursor, with the
// location of its next match cached beside it so the scan for the
// smallest stays within one small array; during window what the screen
// gathers.
type termScan struct {
	loc, pos, n int     // next match's location and index; the list's length
	last        int     // location of the latest match passed
	smax        float64 // largest match score passed; a NaN never is
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

// load starts a Join: it merges lists into s.events. It reports false,
// having merged nothing, when the instance is not complete and so has
// no matchset.
func (s *eventStream) load(lists match.Lists) bool {
	s.cut = false
	q := len(lists)
	if q == 0 {
		return false
	}
	if cap(s.terms) < q {
		s.terms = s.inline[:]
		if q > len(s.inline) {
			s.terms = make([]termScan, q)
		}
	}
	terms := s.terms[:q]
	s.terms = terms
	total := 0
	for j, l := range lists {
		if len(l) == 0 {
			return false
		}
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

// window passes over the loaded events once for the screen: wmin, the
// smallest window holding one match of every term, and the sum over
// terms of g_j of the list's maximum score — in term order — with the
// sum of their magnitudes, the form scorefn's window caps take. ok is
// false when the events are not in location order (a list was not
// sorted), which wmin's scan relies on. A g that is NaN or infinite
// carries into the cap, which then cuts nothing.
//
// wmin is the least, over events, of the event's location minus the
// smallest of the terms' latest locations, once every term has been
// seen. That smallest location only moves when the term holding it
// (minTerm) advances, and until then the windows ending at later
// events only widen: rescan on minTerm alone.
func (s *eventStream) window(memo *gMemo) (wmin int, gsum, mag float64, ok bool) {
	terms := s.terms
	for j := range terms {
		terms[j].smax = math.Inf(-1)
	}
	wmin = math.MaxInt
	seen, minTerm, prev := 0, -1, math.MinInt
	for i := range s.events {
		ev := &s.events[i]
		loc := ev.M.Loc
		if loc < prev {
			return 0, 0, 0, false
		}
		prev = loc
		t := &terms[ev.Term]
		if ev.M.Score > t.smax {
			t.smax = ev.M.Score
		}
		t.last = loc
		if ev.Pos == 0 {
			if seen++; seen == len(terms) {
				minTerm = ev.Term // every term seen: first scan
			}
		}
		if ev.Term == minTerm {
			lo := terms[0].last
			minTerm = 0
			for j := 1; j < len(terms); j++ {
				if terms[j].last < lo {
					lo, minTerm = terms[j].last, j
				}
			}
			wmin = min(wmin, loc-lo)
		}
	}
	for j := range terms {
		g := memo.g(j, terms[j].smax)
		gsum += g
		mag += math.Abs(g)
	}
	return wmin, gsum, mag, true
}
