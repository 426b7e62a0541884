package join

import (
	"math"
	"sort"

	"bestjoin/internal/envelope"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// MEDKernel is the reusable Kernel for MED scoring functions
// (Algorithm 2): it owns the per-term dominating-match lists and
// envelope cursors, the contribution closures, the g_j memo, the
// merged event stream, and the candidate/output matchset buffers. See
// the Kernel interface for the reuse and ownership contract. It is
// Floored: armed with a top-k floor, Join returns ok == false — before
// merging the lists or building any envelope — for an instance whose window upper bound
// (scorefn.CapMED) is strictly below the floor.
type MEDKernel struct {
	fn          scorefn.MED
	g           gMemo // g_j(score), evaluated once per distinct (term, score)
	lists       match.Lists
	contribs    []envelope.Contribution
	entries     [][]envelope.Entry
	cursors     []envelope.Cursor
	cand        match.Set
	out         match.Set
	locs        []int
	eventStream // SetFloor, FloorCut, WindowCut
}

// NewMEDKernel returns an empty kernel bound to fn; scratch grows on
// first use and is reused from then on.
func NewMEDKernel(fn scorefn.MED) *MEDKernel {
	k := &MEDKernel{fn: fn}
	k.g.bind(fn)
	return k
}

// Reset loads a new instance. fn may be nil to keep the current
// scoring function, or a scorefn.MED to swap it (the kernel's
// contribution closures read the current function at call time, so
// only the g_j memo is dropped, no scratch rebuilt).
func (k *MEDKernel) Reset(fn any, lists match.Lists) {
	if fn != nil {
		k.fn = fn.(scorefn.MED)
		k.g.bind(k.fn)
	}
	k.lists = lists
}

// contribution is scorefn.MEDContribution,
// c_j(m,l) = g_j(score(m)) − |loc(m)−l|, under the kernel's current
// scoring function with g_j served from the memo: the same
// subtraction on the same operands, so bit-identical.
func (k *MEDKernel) contribution(j int, m match.Match, l int) float64 {
	d := m.Loc - l
	if d < 0 {
		d = -d
	}
	return k.g.g(j, m.Score) - float64(d)
}

// grow sizes the per-term scratch for q terms.
func (k *MEDKernel) grow(q int) {
	k.g.grow(q)
	for j := len(k.contribs); j < q; j++ {
		j := j
		k.contribs = append(k.contribs, func(m match.Match, l int) float64 {
			return k.contribution(j, m, l)
		})
	}
	for len(k.entries) < q {
		k.entries = append(k.entries, nil)
	}
	if cap(k.cursors) < q {
		k.cursors = make([]envelope.Cursor, q)
	}
	k.cursors = k.cursors[:q]
	if cap(k.cand) < q {
		k.cand = make(match.Set, q)
	}
	k.cand = k.cand[:q]
	if cap(k.out) < q {
		k.out = make(match.Set, q)
	}
	k.out = k.out[:q]
}

// CutWidth is Floored.CutWidth under scorefn.CapMED.
func (k *MEDKernel) CutWidth(sigs []Sig, bar float64) (int, bool) {
	return k.cutWidth(sigs, bar, &k.g, k)
}

func (k *MEDKernel) windowCap(total, mag float64, w int) float64 {
	return scorefn.CapMED(k.fn, total, mag, w)
}

// Join solves the loaded instance exactly as the one-shot MED does. By
// Lemma 1 there is an overall best matchset in which every match is
// dominating at the set's median location, so it precomputes the
// dominating match list V_j per term (into reused buffers) and then
// scans all matches in location order; for each match m it assembles
// the matchset of dominating matches at loc(m) and evaluates it as a
// candidate when m is the median-ranked element of that set.
//
// Time O(|Q| · Σ|Lj|), space O(Σ|Lj|) — owned by the kernel and
// reused. ok is false when some list is empty, or when a floor is
// armed (SetFloor) and no matchset can reach it.
func (k *MEDKernel) Join() (best match.Set, score float64, ok bool) {
	lists := k.lists
	q := len(lists)
	k.grow(q)
	if k.armed {
		if wmin, total, mag, ok := k.screen(lists, &k.g); ok && k.cutBy(k.windowCap(total, mag, wmin)) {
			return nil, 0, false
		}
	}
	if !k.load(lists) {
		return nil, 0, false
	}
	for j := range lists {
		k.entries[j] = envelope.PrecomputeInto(k.entries[j][:0], lists[j], k.contribs[j])
		k.cursors[j].Reset(j, k.entries[j], k.contribs[j])
	}
	medianRank := match.MedianRank(q)
	bestScore := math.Inf(-1)
	found := false
	cand := k.cand

	for _, ev := range k.events {
		m := ev.M
		cand[ev.Term] = m
		following := 0 // matches in cand succeeding m in processing order
		for j := range lists {
			if j == ev.Term {
				continue
			}
			dm, follows, _ := k.cursors[j].AtEvent(ev)
			cand[j] = dm
			if follows {
				following++
			}
		}
		// m is a candidate anchor only if it is the median-ranked
		// element: exactly ⌊(|Q|+1)/2⌋−1 matches rank above it.
		if following+1 == medianRank {
			if sc := k.scoreMED(cand); !found || sc > bestScore {
				copy(k.out, cand)
				bestScore, found = sc, true
			}
		}
	}

	if !found {
		return nil, 0, false
	}
	return k.out, bestScore, true
}

// scoreMED is scorefn.ScoreMED with the median computed via kernel
// scratch instead of a per-call slice. It evaluates the identical
// expression — same median element, same summation order — so results
// are bit-for-bit equal to the one-shot path.
func (k *MEDKernel) scoreMED(s match.Set) float64 {
	k.locs = k.locs[:0]
	for _, m := range s {
		k.locs = append(k.locs, m.Loc)
	}
	sort.Ints(k.locs)
	// Median per footnote 2: the ⌊(n+1)/2⌋-th ranked element counting
	// from the greatest; in ascending order that is index n − rank.
	med := k.locs[len(k.locs)-match.MedianRank(len(k.locs))]
	total := 0.0
	for j, m := range s {
		total += k.contribution(j, m, med)
	}
	return k.fn.F(total)
}

// MED computes an overall best matchset under a MED scoring function
// (Algorithm 2) by running a fresh MEDKernel once — the one-shot form
// for call sites outside the document-at-a-time hot loop. The returned
// set is owned by the caller.
//
// Time O(|Q| · Σ|Lj|) (precomputation O(Σ|Lj|), then O(|Q|) per
// match), space O(Σ|Lj|). ok is false when some list is empty.
func MED(fn scorefn.MED, lists match.Lists) (best match.Set, score float64, ok bool) {
	k := NewMEDKernel(fn)
	k.lists = lists
	return k.Join()
}
