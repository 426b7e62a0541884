package dedup

import (
	"math"

	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// Kernel is a join.Kernel that layers duplicate avoidance over an
// inner kernel: Join runs the full Section VI search with the inner
// kernel as the duplicate-unaware solver and returns the best valid
// (duplicate-free) matchset. The Deduper's search scratch, memo and
// result buffer — and the inner kernel's own scratch — are reused
// across calls, so the wrapper keeps the inner kernel's
// allocation-free document-at-a-time behavior on every document,
// however many duplicates its matchsets carry
// (TestValidKernelZeroAlloc).
//
// The ownership contract matches the Kernel interface: the returned
// Set aliases wrapper-owned memory, valid until the next Reset or
// Join. Not safe for concurrent use.
type Kernel struct {
	inner     join.Kernel
	floored   join.Floored // inner, when it takes a floor itself
	lists     match.Lists
	d         Deduper
	alg       Algorithm
	floor     float64
	windowCut bool // the last Join's root run was cut by inner's own screen
}

// Wrap layers duplicate avoidance over inner, with the Best defaults
// (pruning and memoization enabled).
func Wrap(inner join.Kernel) *Kernel {
	k := &Kernel{inner: inner, d: Deduper{Opts: Options{Prune: true, Memoize: true}}, floor: math.Inf(-1)}
	k.floored, _ = inner.(join.Floored)
	// One closure for the kernel's lifetime: each sub-instance of the
	// search reloads the inner kernel rather than rebuilding anything.
	k.alg = func(lists match.Lists) (match.Set, float64, bool) {
		k.inner.Reset(nil, lists)
		return k.inner.Join()
	}
	return k
}

// Reset records lists (the search's root instance) and passes fn and
// lists through to the inner kernel.
func (k *Kernel) Reset(fn any, lists match.Lists) {
	k.lists = lists
	k.inner.Reset(fn, lists)
}

var _ join.Floored = (*Kernel)(nil)

// SetFloor arms the following Joins with a top-k floor (join.Floored):
// a document whose best valid matchset scores strictly below it comes
// back ok == false, usually after one inner-kernel run. A Floored
// inner kernel is armed with the same floor — valid matchsets are a
// subset of all matchsets, and every sub-instance the search derives
// is an instance of its own — so that one run may itself stop at the
// inner kernel's screen. A fresh kernel's floor is -Inf, under which
// Join is exactly dedup.Best.
func (k *Kernel) SetFloor(floor float64) {
	k.floor = floor
	if k.floored != nil {
		k.floored.SetFloor(floor)
	}
}

// Join solves the loaded instance with duplicate avoidance. ok is
// false when no valid matchset exists, when none reaches the floor
// (SetFloor), or when the invocation cap was hit before one was found
// — Capped tells, and then even an ok answer may not be the optimum.
func (k *Kernel) Join() (match.Set, float64, bool) {
	res := k.d.search(k.alg, k.lists, k.floor)
	// A search of one run ended at its root; if the inner kernel's
	// last Join was cut, that was it.
	k.windowCut = res.Invocations == 1 && k.floored != nil && k.floored.WindowCut()
	return res.Set, res.Score, res.OK
}

// Invocations reports how many times the inner kernel ran during the
// last Join — the paper's Figure 8 metric.
func (k *Kernel) Invocations() int { return k.d.invocations }

// Capped reports whether the last Join stopped at MaxInvocations.
func (k *Kernel) Capped() bool { return k.d.capped }

// FloorCut reports whether the last Join ended at its first inner run,
// the root instance's optimum being strictly below the floor — as the
// run's score showed, or as the inner kernel's screen showed without
// computing one (WindowCut).
func (k *Kernel) FloorCut() bool { return k.d.cut || k.windowCut }

// WindowCut reports whether the last Join ended at its first inner run
// because the inner kernel's window screen cut it.
func (k *Kernel) WindowCut() bool { return k.windowCut }

// CutWidth forwards to a Floored inner kernel, whose screen the search's
// root run applies with the same floor: a cut there is a cut here.
// Without one no width cuts.
func (k *Kernel) CutWidth(sigs []join.Sig, bar float64) (int, bool) {
	if k.floored == nil {
		return 0, false
	}
	return k.floored.CutWidth(sigs, bar)
}

// ScoreUpperBound forwards to the inner kernel's cap (join.UpperBounded)
// when it has one, for either minMatch. Valid (duplicate-free)
// matchsets are a subset of all matchsets, so the inner kernel's
// unrestricted cap stays sound for the wrapped join. An inner kernel
// without one yields +Inf, which the engine's floor comparison can
// never prune on.
func (k *Kernel) ScoreUpperBound(perListMax []float64, minMatch int) float64 {
	if ub, ok := k.inner.(join.UpperBounded); ok {
		return ub.ScoreUpperBound(perListMax, minMatch)
	}
	return math.Inf(1)
}
