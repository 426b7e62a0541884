package scorefn

import "math"

// Score upper bounds: for each family, the highest score any matchset
// drawn from lists with the given per-list maximum match scores could
// possibly attain. The proximity term is capped at its best case — a
// zero-length window for WIN, zero distance to the median for MED,
// zero distance to the reference location for MAX — and every match
// score at its list's maximum, so the bound dominates every concrete
// matchset by the families' own monotonicity contracts (Definitions 3,
// 5 and 7). These are the per-document score caps that make
// threshold-style top-k pruning (Fagin et al.'s TA) lossless: a
// document whose bound is strictly below the current top-k floor can
// be skipped without ever running its best-join.
//
// Soundness per family, for any matchset M with score(m_j) ≤ max_j:
//
//   - WIN: every g_j is increasing, so Σ g_j(score(m_j)) ≤ Σ g_j(max_j);
//     f is increasing in the g-total and decreasing in the window, and
//     window(M) ≥ 0, hence score(M) ≤ f(Σ g_j(max_j), 0).
//   - MED: each contribution g_j(score(m_j)) − |loc(m_j) − median(M)|
//     is at most g_j(max_j); f is increasing.
//   - MAX: c_j is increasing in score and decreasing in distance, so
//     c_j(m_j, l) ≤ c_j(max_j, 0) for every reference location l — the
//     bound dominates the supremum over all locations, not just the
//     match locations, so it is sound for general MAX functions too.
//
// The bounds are tight at zero proximity penalty: a matchset whose
// matches all carry their list's maximum score and share one location
// scores exactly the bound (every floating-point operation is applied
// to identical inputs in identical order). CheckUpperBoundWIN/MED/MAX
// probe the domination property on randomized instances.

// UpperBound is the engine-facing shape of the hooks below: a
// per-document score cap computed from the per-list maximum match
// scores of one candidate document.
type UpperBound func(perListMax []float64) float64

// UpperBoundWIN returns the WIN score cap f(Σ g_j(max_j), 0): the best
// possible transformed-score total combined with a zero-length window.
func UpperBoundWIN(fn WIN, perListMax []float64) float64 {
	gsum := 0.0
	for j, m := range perListMax {
		gsum += fn.G(j, m)
	}
	return fn.F(gsum, 0)
}

// UpperBoundMED returns the MED score cap f(Σ g_j(max_j)): every match
// at its list's maximum score sitting exactly on the median.
func UpperBoundMED(fn MED, perListMax []float64) float64 {
	total := 0.0
	for j, m := range perListMax {
		total += fn.G(j, m)
	}
	return fn.F(total)
}

// UpperBoundMAX returns the MAX score cap f(Σ c_j(max_j, 0)): every
// match at its list's maximum score sitting exactly on the reference
// location.
func UpperBoundMAX(fn MAX, perListMax []float64) float64 {
	total := 0.0
	for j, m := range perListMax {
		total += fn.Contribution(j, m, 0)
	}
	return fn.F(total)
}

// Union (disjunctive) upper bounds: the highest score any matchset
// drawn from ANY subset of at least minMatch of the given lists could
// attain. The conjunctive bounds above are not reusable here — for
// product-style instances g_j(x) = ln(x) is negative on scores in
// (0,1], so adding a list LOWERS the transformed-score total: with two
// lists of maximum 0.5, the full-set WIN bound is f(ln 0.5 + ln 0.5, 0)
// = 0.25, while a document matching only the first list legitimately
// scores up to 0.5. A sound disjunctive bound must therefore maximize
// over the admissible subset sizes.
//
// The functions below sort the per-list maxima descending (in place —
// the caller's slice is reordered) and evaluate the family's
// zero-proximity cap on every prefix of size s ∈ [minMatch, len],
// returning the largest. That dominates the best
// join over any admissible subset PROVIDED the per-term transform is
// term-exchangeable — G(j, x) (or Contribution(j, x, d)) does not
// depend on j — because then the score of a size-s subset depends only
// on the multiset of its match scores, each of which is dominated
// element-wise by the s largest list maxima. Every shipped unweighted
// instance (ExpWIN, LinearWIN, ExpMED, LinearMED, ProdMAX, SumMAX) is
// term-exchangeable; WeightedWIN/WeightedMED are not, and callers
// scoring with term-dependent transforms must not use these bounds
// (disable pruning instead). CheckUnionUpperBound* probe the
// domination property on randomized instances and subsets.
//
// minMatch values outside [1, len(perListMax)] are clamped; an empty
// perListMax yields -Inf (no admissible matchset).

// sortDescending sorts the per-list maxima in place, largest first and
// NaNs last (the order sort.Reverse(sort.Float64Slice) gives): an
// insertion sort, since there is one maximum per query term, and in
// place because the engine calls the union bounds once per pivot
// document on a scratch slice it refills each time.
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

// prefixMax folds one admissible prefix's cap into the running
// maximum; a NaN cap poisons the bound (it never prunes).
func prefixMax(best, v float64) float64 {
	if v > best || math.IsNaN(v) {
		return v
	}
	return best
}

// UnionUpperBoundWIN returns the disjunctive WIN score cap
// max over s ∈ [minMatch, n] of f(Σ_{i<s} g(sorted_i), 0), with the
// per-list maxima sorted descending — in place: perListMax is
// reordered. Sound for term-exchangeable G.
func UnionUpperBoundWIN(fn WIN, perListMax []float64, minMatch int) float64 {
	sortDescending(perListMax)
	minMatch = min(minMatch, len(perListMax)) // below 1 admits every prefix, as 1 does
	best, gsum := math.Inf(-1), 0.0
	for i, m := range perListMax {
		gsum += fn.G(i, m)
		if i+1 >= minMatch {
			best = prefixMax(best, fn.F(gsum, 0))
		}
	}
	return best
}

// UnionUpperBoundMED returns the disjunctive MED score cap; see
// UnionUpperBoundWIN.
func UnionUpperBoundMED(fn MED, perListMax []float64, minMatch int) float64 {
	sortDescending(perListMax)
	minMatch = min(minMatch, len(perListMax))
	best, total := math.Inf(-1), 0.0
	for i, m := range perListMax {
		total += fn.G(i, m)
		if i+1 >= minMatch {
			best = prefixMax(best, fn.F(total))
		}
	}
	return best
}

// UnionUpperBoundMAX returns the disjunctive MAX score cap; see
// UnionUpperBoundWIN.
func UnionUpperBoundMAX(fn MAX, perListMax []float64, minMatch int) float64 {
	sortDescending(perListMax)
	minMatch = min(minMatch, len(perListMax))
	best, total := math.Inf(-1), 0.0
	for i, m := range perListMax {
		total += fn.Contribution(i, m, 0)
		if i+1 >= minMatch {
			best = prefixMax(best, fn.F(total))
		}
	}
	return best
}

// Window upper bounds: the per-list-maxima caps above with the
// proximity term held to the best any matchset of the instance can
// actually reach. wmin is the smallest window holding one match of
// every list — a location-ordered merge of the lists yields it — so
// every matchset M of the instance has window(M) ≥ wmin, and:
//
//   - WIN: f is decreasing in the window, hence
//     score(M) ≤ f(Σ g_j(max_j), wmin).
//   - MED: the median is one of M's own locations, so for |Q| ≥ 2 the
//     leftmost and rightmost matches alone are max loc − min loc away
//     from it in total: Σ_j |loc(m_j) − median(M)| ≥ window(M) ≥ wmin,
//     hence score(M) ≤ f(Σ g_j(max_j) − wmin). For |Q| = 1 both sides
//     of the distance inequality are 0.
//
// Unlike the caps above these are compared against scores the join
// kernels computed with the same terms in a different order (WIN sums
// g in location order, MED folds each distance into its term first),
// so they must dominate under rounding, not only in real arithmetic.
// A float64 sum of n terms is within n·2⁻⁵³·Σ|x_i| of the real one
// whatever the order, and a matchset's own magnitudes exceed the
// maxima's by no more than its score total falls short of theirs, so
// inflating the total by sumMargin times the summed magnitudes of the
// bound's own terms covers both sums by three orders of magnitude at
// any query width a kernel accepts. A non-finite g or scoring-function
// value surfaces as a NaN or infinite bound; callers cut on
// "bound < floor", which a NaN never satisfies.
// CheckWindowUpperBoundWIN/MED probe domination exhaustively.
const sumMargin = 1e-12

// WindowUpperBoundWIN returns the WIN score cap f(Σ g_j(max_j), wmin)
// for matchsets spanning a window of at least wmin, Σ inflated by the
// rounding margin.
func WindowUpperBoundWIN(fn WIN, perListMax []float64, wmin int) float64 {
	gsum, mag := 0.0, 0.0
	for j, m := range perListMax {
		g := fn.G(j, m)
		gsum += g
		mag += math.Abs(g)
	}
	return WindowCapWIN(fn, gsum, mag, wmin)
}

// WindowCapWIN is WindowUpperBoundWIN for a caller that already holds
// the g_j(max_j) — the WIN kernel, which has every g of the instance
// and keeps each list's largest: gsum is their sum in term order, mag
// the sum of their magnitudes.
func WindowCapWIN(fn WIN, gsum, mag float64, wmin int) float64 {
	return fn.F(gsum+mag*sumMargin, float64(wmin))
}

// WindowUpperBoundMED returns the MED score cap f(Σ g_j(max_j) − wmin)
// for matchsets spanning a window of at least wmin, the total inflated
// by the rounding margin.
func WindowUpperBoundMED(fn MED, perListMax []float64, wmin int) float64 {
	total, mag := 0.0, 0.0
	for j, m := range perListMax {
		g := fn.G(j, m)
		total += g
		mag += math.Abs(g)
	}
	return WindowCapMED(fn, total, mag, wmin)
}

// WindowCapMED is WindowUpperBoundMED for a caller that already holds
// the g_j(max_j); see WindowCapWIN.
func WindowCapMED(fn MED, total, mag float64, wmin int) float64 {
	w := float64(wmin)
	return fn.F(total - w + (mag+w)*sumMargin)
}
