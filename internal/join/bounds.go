package join

import "bestjoin/internal/scorefn"

// UpperBounded is the optional kernel capability behind the engine's
// lossless top-k pruning: a kernel that can cap, from per-list maximum
// match scores alone, the score any matchset of a document could
// attain under its current scoring function — the list-max rung of
// scorefn.ListMaxCap. The engine probes a query's kernel for this
// interface; when present (and pruning is enabled) it skips the join
// for every candidate document whose cap is strictly below its bar.
//
// minMatch ≤ 0 asks for the conjunctive cap, over the matchsets of
// every list; perListMax is left as it was, and the cap is a function
// of it alone, so candidates with bit-identical maxima need one
// evaluation. minMatch ≥ 1 asks for the disjunctive cap of a ranked
// union, over the matchsets of ANY subset of at least minMatch lists,
// compacted in order (the engine passes workers only the matched
// lists, re-indexed from 0); it may reorder perListMax, and is +Inf
// when the scoring function is not scorefn.Exchangeable.
//
// Contract: the cap must be ≥ the score Join would return on any such
// instance — including under restrictions that only shrink the
// feasible matchset space, such as the duplicate-avoidance wrapper.
// Never-prune-on-equality is the engine's side of the bargain; the
// kernel's cap only has to dominate, not to be tight.
type UpperBounded interface {
	ScoreUpperBound(perListMax []float64, minMatch int) float64
}

// ScoreUpperBound is the WIN list-max rung under the kernel's current
// scoring function.
func (k *WINKernel) ScoreUpperBound(perListMax []float64, minMatch int) float64 {
	return scorefn.ListMaxCap(k.fn, perListMax, minMatch, k.fn.G,
		func(gsum float64) float64 { return scorefn.CapWIN(k.fn, gsum, 0, 0) })
}

// ScoreUpperBound is the MED list-max rung.
func (k *MEDKernel) ScoreUpperBound(perListMax []float64, minMatch int) float64 {
	return scorefn.ListMaxCap(k.fn, perListMax, minMatch, k.fn.G,
		func(total float64) float64 { return scorefn.CapMED(k.fn, total, 0, 0) })
}

// ScoreUpperBound is the MAX list-max rung.
func (k *MAXKernel) ScoreUpperBound(perListMax []float64, minMatch int) float64 {
	return scorefn.ListMaxCap(k.fn, perListMax, minMatch,
		func(j int, x float64) float64 { return k.fn.Contribution(j, x, 0) }, k.fn.F)
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
	// CutWidth is the window screen asked before the lists are at hand:
	// the narrowest window width w whose cap, over the lists' maxima
	// sigs[j].Max, is strictly below bar. An instance with those maxima
	// whose every window holding one match per list is at least w wide
	// (Apart) is one the kernel armed with bar would cut. ok is false
	// when no width cuts; a kernel without a window screen always
	// answers so. CutWidth leaves the floor and the loaded instance as
	// they were.
	CutWidth(sigs []Sig, bar float64) (w int, ok bool)
}

var (
	_ UpperBounded = (*WINKernel)(nil)
	_ UpperBounded = (*MEDKernel)(nil)
	_ UpperBounded = (*MAXKernel)(nil)
	_ Floored      = (*WINKernel)(nil)
	_ Floored      = (*MEDKernel)(nil)
)
