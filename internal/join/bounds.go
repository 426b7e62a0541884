package join

import "bestjoin/internal/scorefn"

// UpperBounded is the optional kernel capability behind the engine's
// lossless top-k pruning: a kernel that can cap, from per-list maximum
// match scores alone, the score any matchset of a document could
// attain under its current scoring function. The engine probes a
// query's kernel for this interface; when present (and pruning is
// enabled) it skips the join for every candidate document whose cap is
// strictly below the current top-k floor.
//
// Contract: for any instance whose list maxima are perListMax,
// ScoreUpperBound must be ≥ the score Join would return — including
// under restrictions that only shrink the feasible matchset space,
// such as the duplicate-avoidance wrapper. Never-prune-on-equality is
// the engine's side of the bargain; the kernel's bound only has to
// dominate, not to be tight. The bound must be a function of
// perListMax alone, which it leaves as it found it: the engine reads
// the maxima again, and gives candidates with bit-identical maxima one
// evaluation.
type UpperBounded interface {
	ScoreUpperBound(perListMax []float64) float64
}

// ScoreUpperBound caps the WIN score of any matchset drawn from lists
// with the given per-list maxima (scorefn.UpperBoundWIN under the
// kernel's current scoring function).
func (k *WINKernel) ScoreUpperBound(perListMax []float64) float64 {
	return scorefn.UpperBoundWIN(k.fn, perListMax)
}

// ScoreUpperBound caps the MED score of any matchset drawn from lists
// with the given per-list maxima.
func (k *MEDKernel) ScoreUpperBound(perListMax []float64) float64 {
	return scorefn.UpperBoundMED(k.fn, perListMax)
}

// ScoreUpperBound caps the MAX score of any matchset drawn from lists
// with the given per-list maxima.
func (k *MAXKernel) ScoreUpperBound(perListMax []float64) float64 {
	return scorefn.UpperBoundMAX(k.fn, perListMax)
}

// UnionBounded is the optional kernel capability behind the engine's
// disjunctive (ranked-union / m-of-n) pruning: a cap on the score any
// matchset drawn from ANY subset of at least minMatch of the lists
// could attain. The conjunctive ScoreUpperBound is not reusable there
// — for product-style scoring functions adding a list lowers the
// bound, so a full-set cap does not dominate partial matches.
//
// Contract: for any document whose per-list maximum match scores are
// perListMax, ScoreUnionUpperBound must be ≥ the score Join would
// return on the match lists of ANY subset of ≥ minMatch lists,
// compacted in order (the engine passes workers only the matched
// lists, re-indexed from 0). An implementation may reorder perListMax
// (the shipped ones sort it in place rather than allocate a copy per
// pivot document). The implementations below satisfy the contract
// only for term-exchangeable scoring functions — G (or Contribution)
// independent of the term index — which holds for every shipped
// unweighted instance. Queries scoring with term-dependent transforms
// (scorefn.WeightedWIN/WeightedMED) must run with pruning disabled.
type UnionBounded interface {
	ScoreUnionUpperBound(perListMax []float64, minMatch int) float64
}

// ScoreUnionUpperBound caps the WIN score of any matchset drawn from
// at least minMatch of the lists (scorefn.UnionUpperBoundWIN under the
// kernel's current scoring function).
func (k *WINKernel) ScoreUnionUpperBound(perListMax []float64, minMatch int) float64 {
	return scorefn.UnionUpperBoundWIN(k.fn, perListMax, minMatch)
}

// ScoreUnionUpperBound caps the MED score of any matchset drawn from
// at least minMatch of the lists.
func (k *MEDKernel) ScoreUnionUpperBound(perListMax []float64, minMatch int) float64 {
	return scorefn.UnionUpperBoundMED(k.fn, perListMax, minMatch)
}

// ScoreUnionUpperBound caps the MAX score of any matchset drawn from
// at least minMatch of the lists.
func (k *MAXKernel) ScoreUnionUpperBound(perListMax []float64, minMatch int) float64 {
	return scorefn.UnionUpperBoundMAX(k.fn, perListMax, minMatch)
}

// Floored is the optional kernel capability behind the engine's
// kernel-floor screens: a kernel that can tell, for less than the join
// costs, that nothing it could return reaches the top-k floor. After
// SetFloor, Join may return ok == false for a document scoring
// strictly below floor — never for one at or above it, which may still
// win its doc-id tie-break. A fresh kernel's floor cuts nothing.
//
// Two kernels have the capability. The duplicate-avoidance wrapper's
// Join is a search, which stops once its duplicate-unaware optimum is
// below the floor (dedup.Kernel). WINKernel and MEDKernel apply the
// window screen (eventStream): a cap from the smallest window the
// instance admits, checked before their dynamic program runs. The
// wrapper forwards its floor, so each inner run of a search is
// screened too.
type Floored interface {
	SetFloor(floor float64)
	// FloorCut reports whether the last Join came back ok == false on
	// account of the floor — for a search, at its root run, having
	// found nothing before. WindowCut narrows that to the window
	// screen: the cut (root) run never reached the dynamic program.
	FloorCut() bool
	WindowCut() bool
}

var (
	_ UpperBounded = (*WINKernel)(nil)
	_ UpperBounded = (*MEDKernel)(nil)
	_ UpperBounded = (*MAXKernel)(nil)
	_ UnionBounded = (*WINKernel)(nil)
	_ UnionBounded = (*MEDKernel)(nil)
	_ UnionBounded = (*MAXKernel)(nil)
	_ Floored      = (*WINKernel)(nil)
	_ Floored      = (*MEDKernel)(nil)
)
