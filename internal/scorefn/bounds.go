package scorefn

import "math"

// Score caps: the one fact all pruning rests on. f and every g_j are
// monotone (Definitions 3, 5 and 7), so no matchset whose match scores
// are at most the per-list maxima max_j, and whose window is at least
// w, scores above the family's cap at Σ g_j(max_j) and w:
//
//   - WIN: f is increasing in the g-total and decreasing in the
//     window, so score(M) ≤ F(Σ g_j(max_j), w).
//   - MED: the median is one of M's own locations, so for |Q| ≥ 2 the
//     leftmost and rightmost matches alone are window(M) ≥ w away from
//     it in total, and score(M) ≤ F(Σ g_j(max_j) − w). For |Q| = 1
//     both sides of that distance inequality are 0.
//   - MAX: c_j is increasing in score and decreasing in distance, so
//     c_j(m_j, l) ≤ c_j(max_j, 0) at every reference location l and
//     score(M) ≤ F(Σ c_j(max_j, 0)). MAX has no window cap: its F is
//     the whole cap.
//
// The engine's screens are rungs of one ladder of these caps (DESIGN.md
// "Score-upper-bound pruning").
//
// Rounding. A cap taken at w = 0 with magnitude 0 is F of the term-order
// sum, exactly what ScoreWIN/MED/MAX compute for a matchset holding every
// list's maximum at one location: it is tight, to the bit. A window cap
// is compared with scores the join kernels summed in another order
// (WIN in location order, MED with each distance folded into its term),
// so it must dominate under rounding too. A float64 sum of n terms is
// within n·2⁻⁵³·Σ|x_i| of the real one in any order, and a matchset's
// magnitudes exceed the maxima's by no more than its total falls short
// of theirs, so inflating the total by sumMargin times mag, the summed
// magnitudes of the cap's own terms, covers both sums by three orders
// of magnitude at any width a kernel accepts. When mag is 0 — every
// g_j(max_j) is 0, as for lists of weight-1 matches under ExpWIN or
// ExpMED — no margin is needed at any width: every match's g_j is at
// most 0, so a kernel's WIN g-total is at most 0 in any order and each
// MED term fl(g_j − d_j) is at most −d_j, whose sum is exact in
// integers; rounding is monotone, so the score is at most F(0, w) or
// F(−w), and both caps are exactly that. A non-finite g or F
// surfaces as a NaN or infinite cap, and "cap < floor" never holds for
// a NaN. CheckCapWIN/MED/MAX probe every rung exhaustively.
const sumMargin = 1e-12

// CapWIN is the WIN cap F(gsum + mag·margin, w): gsum is Σ g_j(max_j)
// in term order, mag the sum of its terms' magnitudes, w a lower bound
// on every matchset's window. At mag 0 and w 0 it is F(gsum, 0).
func CapWIN(fn WIN, gsum, mag float64, w int) float64 {
	return fn.F(gsum+mag*sumMargin, float64(w))
}

// CapMED is the MED cap F(total − w + (mag + w)·margin); see CapWIN. At
// mag 0 it is F(total − w), with no margin.
func CapMED(fn MED, total, mag float64, w int) float64 {
	wf := float64(w)
	if mag == 0 {
		return fn.F(total - wf)
	}
	return fn.F(total - wf + (mag+wf)*sumMargin)
}

// CapMAX is the MAX cap F(total + mag·margin) over Σ c_j(max_j, 0); see
// CapWIN. MAX has no window. At mag 0 it is F(total).
func CapMAX(fn MAX, total, mag float64) float64 {
	return fn.F(total + mag*sumMargin)
}

// DistinctFloorWIN is the narrowest window of s pairwise-distinct
// integer locations, s−1: the WIN window floor of a valid matchset
// (Section VI) of s lists, which uses no location twice.
func DistinctFloorWIN(s int) int { return s - 1 }

// DistinctFloorMED is the least total distance of s pairwise-distinct
// integer locations to one of them, ⌊s²/4⌋: s consecutive locations
// about their median, whose distances are 1, 1, 2, 2, …. It is the MED
// window floor of a valid matchset of s lists; for s ≥ 2 it is at least
// DistinctFloorWIN(s), the leftmost and rightmost matches alone.
func DistinctFloorMED(s int) int { return s * s / 4 }

// Exchangeable marks a scoring function whose per-term transform — G,
// or Contribution — does not depend on the term index. Only such a
// function has a disjunctive cap (ListMaxCap with 1 ≤ minMatch < the
// number of lists): its
// score of a subset of the lists depends on the multiset of match
// scores alone, whichever terms they answer. Every unweighted instance
// is exchangeable; WeightedWIN and WeightedMED are not.
type Exchangeable interface {
	// TermExchangeable is a marker; implementations assert the property.
	TermExchangeable()
}

// ListMaxCap is the list-max rung every family shares: the cap over
// the per-list maxima at the narrowest window a matchset of s lists can
// have, floor(s) — 0 for a nil floor, where every list may sit at one
// location. g is the family's per-term transform at a list maximum (G,
// or Contribution at distance 0) and capAt its cap over a g-total, the
// total's magnitude and a window (CapWIN, CapMED, or CapMAX, which has
// no window). A cap at window 0 over a sum that a matchset at one
// location scores bit for bit is taken at magnitude 0, F of the sum
// itself, tight to the bit; any other cap at its terms' magnitude, which
// is 0, and the cap exact, when every term is 0 (see Rounding above).
//
// minMatch ≤ 0 asks for the conjunctive cap over matchsets of every
// list, its g-total summed in term order; perListMax is left as it was.
// So does minMatch ≥ len(perListMax): the only admissible subset is
// then every list, so every scoring function has this cap, the
// term-weighted ones included.
//
// 1 ≤ minMatch < len(perListMax) asks for the disjunctive cap over
// matchsets of ANY subset of at least minMatch lists, compacted to
// term indices 0..s−1 — the
// instances a ranked union joins. Adding a list can lower a cap (two
// ExpWIN lists of maximum 0.5 cap at 0.25, while one of them alone
// scores 0.5), so the cap is the largest over the admissible subset
// sizes s of the cap over the s largest maxima, g evaluated at sorted
// position i and summed in that order: perListMax is sorted descending,
// in place, NaNs last. That dominates every subset of size s only when g
// ignores its term index, so fn — the function g and capAt belong to —
// must be Exchangeable; for any other fn the cap is +Inf, which prunes
// nothing. A NaN cap at any size makes the whole cap NaN.
func ListMaxCap(fn any, perListMax []float64, minMatch int, floor func(s int) int, g func(term int, max float64) float64, capAt func(sum, mag float64, w int) float64) float64 {
	if minMatch <= 0 || minMatch >= len(perListMax) {
		sum, mag := 0.0, 0.0
		for j, m := range perListMax {
			v := g(j, m)
			sum, mag = sum+v, mag+math.Abs(v)
		}
		return capAtSize(len(perListMax), sum, mag, true, floor, capAt)
	}
	if _, ok := fn.(Exchangeable); !ok {
		return math.Inf(1)
	}
	sortDescending(perListMax)
	best, sum, mag := math.Inf(-1), 0.0, 0.0
	for i, m := range perListMax {
		v := g(i, m)
		sum, mag = sum+v, mag+math.Abs(v)
		if i+1 >= minMatch {
			if v := capAtSize(i+1, sum, mag, false, floor, capAt); v > best || math.IsNaN(v) {
				best = v
			}
		}
	}
	return best
}

// capAtSize is ListMaxCap's cap over the g-total sum of s lists, whose
// terms' magnitudes sum to mag, at window floor(s). The margin is left
// out at window 0 when a matchset of the lists' maxima at one location
// scores F of this very sum: when it was summed in term order, as
// ScoreWIN/MED/MAX sum, or has at most two terms, whose float sum is
// the same in either order. A sum of three or more sorted maxima can
// round an ulp below the same terms summed in term order.
func capAtSize(s int, sum, mag float64, termOrder bool, floor func(int) int, capAt func(sum, mag float64, w int) float64) float64 {
	w := 0
	if floor != nil {
		w = floor(s)
	}
	if w == 0 && (termOrder || s <= 2) {
		mag = 0
	}
	return capAt(sum, mag, w)
}

// sortDescending sorts the per-list maxima in place, largest first and
// NaNs last (the order sort.Reverse(sort.Float64Slice) gives): an
// insertion sort, since there is one maximum per query term, and in
// place because the engine refills its scratch for every pivot.
func sortDescending(perListMax []float64) {
	for i := 1; i < len(perListMax); i++ {
		v := perListMax[i]
		j := i
		for ; j > 0; j-- {
			// sort.Float64Slice's Less(p, v): p sorts after v.
			if p := perListMax[j-1]; !(p < v || p != p && v == v) {
				break
			}
			perListMax[j] = perListMax[j-1]
		}
		perListMax[j] = v
	}
}
