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
// of magnitude at any width a kernel accepts. A non-finite g or F
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
// mag 0 and w 0 it is F(total).
func CapMED(fn MED, total, mag float64, w int) float64 {
	wf := float64(w)
	return fn.F(total - wf + (mag+wf)*sumMargin)
}

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

// ListMaxCap is the list-max rung every family shares: the cap at
// magnitude 0 and window 0 over the per-list maxima. g is the family's
// per-term transform at a list maximum (G, or Contribution at distance
// 0) and capAt its cap over a g-total at magnitude 0 and window 0
// (CapWIN, CapMED, or MAX's F).
//
// minMatch ≤ 0 asks for the conjunctive cap capAt(Σ_j g(j, max_j)),
// summed in term order, over matchsets of every list; perListMax is
// left as it was. So does minMatch ≥ len(perListMax): the only
// admissible subset is then every list, so every scoring function has
// this cap, the term-weighted ones included.
//
// 1 ≤ minMatch < len(perListMax) asks for the disjunctive cap over
// matchsets of ANY subset of at least minMatch lists, compacted to
// term indices 0..s−1 — the
// instances a ranked union joins. Adding a list can lower a cap (two
// ExpWIN lists of maximum 0.5 cap at 0.25, while one of them alone
// scores 0.5), so the cap is the largest over the admissible subset
// sizes s of capAt(Σ_{i<s} g(i, sorted_i)): perListMax is sorted
// descending, in place, NaNs last, and each size takes the s largest
// maxima. That dominates every subset of size s only when g ignores its
// term index, so fn — the function g and capAt belong to — must be
// Exchangeable; for any other fn the cap is +Inf, which prunes nothing.
// A NaN cap at any size makes the whole cap NaN.
func ListMaxCap(fn any, perListMax []float64, minMatch int, g func(term int, max float64) float64, capAt func(sum float64) float64) float64 {
	if minMatch <= 0 || minMatch >= len(perListMax) {
		sum := 0.0
		for j, m := range perListMax {
			sum += g(j, m)
		}
		return capAt(sum)
	}
	if _, ok := fn.(Exchangeable); !ok {
		return math.Inf(1)
	}
	sortDescending(perListMax)
	best, sum := math.Inf(-1), 0.0
	for i, m := range perListMax {
		sum += g(i, m)
		if i+1 >= minMatch {
			if v := capAt(sum); v > best || math.IsNaN(v) {
				best = v
			}
		}
	}
	return best
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
