package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"bestjoin/internal/dedup"
	"bestjoin/internal/faultinject"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// Kernel plumbing: the factory surface queries supply, the stock
// factories for the paper's scoring families, and the panic-isolation
// wrappers — around the kernel's joins and around its score cap — that
// keep user-supplied scoring closures from taking the process down.

// KernelFactory builds one reusable join kernel. The factory itself
// must be safe for concurrent use (Search calls it once per walker);
// the kernels it returns need not be — each walker owns its kernel
// exclusively and reuses its scratch across the documents it
// evaluates. Adapt a plain one-shot function with join.KernelFunc.
type KernelFactory func() join.Kernel

// WINJoiner joins under a WIN scoring function (Algorithm 1).
func WINJoiner(fn scorefn.WIN) KernelFactory {
	return func() join.Kernel { return join.NewWINKernel(fn) }
}

// MEDJoiner joins under a MED scoring function (Algorithm 2).
func MEDJoiner(fn scorefn.MED) KernelFactory {
	return func() join.Kernel { return join.NewMEDKernel(fn) }
}

// MAXJoiner joins under an efficient MAX scoring function.
func MAXJoiner(fn scorefn.EfficientMAX) KernelFactory {
	return func() join.Kernel { return join.NewMAXKernel(fn) }
}

// ValidWINJoiner is WINJoiner restricted to valid matchsets (no token
// answers two query terms at once, the paper's Section VI).
func ValidWINJoiner(fn scorefn.WIN) KernelFactory {
	return func() join.Kernel { return dedup.Wrap(join.NewWINKernel(fn)) }
}

// ValidMEDJoiner is MEDJoiner restricted to valid matchsets.
func ValidMEDJoiner(fn scorefn.MED) KernelFactory {
	return func() join.Kernel { return dedup.Wrap(join.NewMEDKernel(fn)) }
}

// ValidMAXJoiner is MAXJoiner restricted to valid matchsets.
func ValidMAXJoiner(fn scorefn.EfficientMAX) KernelFactory {
	return func() join.Kernel { return dedup.Wrap(join.NewMAXKernel(fn)) }
}

// KernelSpec names one of the stock kernel factories declaratively:
// a scoring family, its distance-decay rate, and the valid-matchset
// restriction. A Join closure cannot cross a process boundary, but a
// spec can — the remote shard tier serializes the spec and the serving
// side rebuilds an equivalent factory with Factory. A Search whose
// Query carries only a Spec (Join == nil) resolves it itself, so both
// halves of a remote deployment construct bitwise-identical kernels
// from the same three fields.
type KernelSpec struct {
	// Family is "win" (ExpWIN), "med" (ExpMED), or "max" (SumMAX) —
	// the three families proxserve deploys.
	Family string `json:"family"`
	// Alpha is the family's distance-decay rate.
	Alpha float64 `json:"alpha"`
	// Valid restricts joins to valid matchsets (dedup-wrapped kernels,
	// the paper's Section VI).
	Valid bool `json:"valid,omitempty"`
}

// Zero reports whether the spec is unset.
func (s KernelSpec) Zero() bool { return s == KernelSpec{} }

// Fingerprint hashes the spec to the stable 64-bit identity under
// which pair lists are registered and looked up (BuildPairIndex).
// The index layer treats the value as opaque; only equality matters —
// a pair list holds exactly the outputs of the spec that built it, so
// any field change must change the fingerprint.
func (s KernelSpec) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Family))
	h.Write([]byte{0})
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.Alpha))
	h.Write(b[:])
	if s.Valid {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Factory resolves the spec into a kernel factory, or fails on an
// unknown family or an alpha that is not finite and positive (hostile
// specs arrive over the network; they must be rejected, not scored).
// Every family is a decay in distance only for alpha > 0: at alpha < 0
// the score grows with distance, so the pruning bounds, which assume
// the decay, cut documents the exhaustive ranking keeps, and at
// alpha = 0 MED divides by zero and ranks nothing.
func (s KernelSpec) Factory() (KernelFactory, error) {
	if !(s.Alpha > 0) || s.Alpha > math.MaxFloat64 {
		return nil, fmt.Errorf("engine: kernel spec alpha %v is not a finite positive number", s.Alpha)
	}
	switch s.Family {
	case "win":
		fn := scorefn.ExpWIN{Alpha: s.Alpha}
		if s.Valid {
			return ValidWINJoiner(fn), nil
		}
		return WINJoiner(fn), nil
	case "med":
		fn := scorefn.ExpMED{Alpha: s.Alpha}
		if s.Valid {
			return ValidMEDJoiner(fn), nil
		}
		return MEDJoiner(fn), nil
	case "max":
		fn := scorefn.SumMAX{Alpha: s.Alpha}
		if s.Valid {
			return ValidMAXJoiner(fn), nil
		}
		return MAXJoiner(fn), nil
	}
	return nil, fmt.Errorf("engine: unknown kernel family %q (want win, med, or max)", s.Family)
}

// workerKernel is one walker's kernel with its optional capabilities
// resolved once per build, not once per document.
type workerKernel struct {
	join.Kernel
	floored join.Floored  // nil unless the kernel supports a floor
	valid   *dedup.Kernel // nil unless the kernel is the valid-matchset wrapper
}

// buildKernel calls the query's factory, recovering a panicking
// factory to the zero workerKernel (counted in t) so one hostile
// factory cannot kill a walker (and with it the whole query's WaitGroup).
func buildKernel(f KernelFactory, t *Tally) (wk workerKernel) {
	defer func() {
		if r := recover(); r != nil {
			t.JoinPanics++
			wk = workerKernel{}
		}
	}()
	wk.Kernel = f()
	wk.valid, _ = wk.Kernel.(*dedup.Kernel)
	wk.floored, _ = wk.Kernel.(join.Floored)
	return wk
}

// rungCut runs the cache rung of a Floored kernel under recover: when
// the lists' signatures sigs prove every window of one match per list
// at least the kernel's cut width at bar (join.Apart), the window
// screen would cut the document, so it need not be joined — nor its
// lists merged. A kernel without a window screen never cuts. A panic
// in CutWidth poisons the kernel, like one in a join.
func rungCut(kern workerKernel, bar float64, sigs []join.Sig) (cut, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			cut, panicked = false, true
		}
	}()
	if fk := kern.floored; fk != nil {
		w, cuts := fk.CutWidth(sigs, bar)
		return cuts && join.Apart(sigs, w), false
	}
	return false, false
}

// safeJoin runs one kernel invocation under recover: a panic in
// SetFloor, in Reset, in Join, or injected at the KernelJoin site is
// contained to this one document. The kernel must be treated as
// poisoned after a panic — its scratch may be mid-mutation. A Floored
// kernel is armed with bar, so ok == false also means "ranks strictly
// below the k-th kept entry" (the kernel-floor screen, DESIGN.md).
func safeJoin(kern workerKernel, bar float64, lists match.Lists) (set match.Set, score float64, ok, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			set, score, ok, panicked = nil, 0, false, true
		}
	}()
	faultinject.MaybePanic(faultinject.KernelJoin)
	if fk := kern.floored; fk != nil {
		fk.SetFloor(bar)
	}
	kern.Reset(nil, lists)
	set, score, ok = kern.Join()
	return
}

// bounder evaluates a query kernel's score cap (join.UpperBounded) for
// one walker, once or twice per pivot. A cap that panics is contained:
// the bounder is failed, the evaluation yields +Inf, which never
// prunes, and the walker goes on unpruned, which is always sound. It
// remembers its evaluations in a small direct-mapped memo: a concept's
// maximum on a document is one of its stem weights, so a query's
// pivots carry few distinct maxima, and the cap is a function of its
// arguments alone, so arguments bit-identical to a remembered
// evaluation's take its float without calling the kernel — nor does a
// rebuilt kernel, from the same factory, invalidate them. It belongs
// to one walker, counting in the walker's tally, wraps that walker's
// kernel (wrap), and bounds at most MaxConcepts lists.
type bounder struct {
	t      *Tally
	ub     join.UpperBounded
	failed bool
	maxima [MaxConcepts]float64 // scratch for boundSigs
	memo   [1 << boundMemoBits]boundSlot
}

// boundMemoBits sizes the bounder's memo, and boundMemoWidth the
// arguments it remembers: a wider one is evaluated every time. On
// BenchmarkEngineUnion's OR query (one worker) 64 slots leave 40 of its
// 1699 candidates' caps to evaluate, 16 slots 395, and remembering only
// the last evaluation 1361; on BenchmarkEnginePruning's AND query, 7 of
// 964 against 404.
const (
	boundMemoBits  = 6
	boundMemoWidth = 8
)

// boundSlot is one remembered evaluation: the exact bits of its maxima,
// in the order given, its minMatch, and the cap they produced.
type boundSlot struct {
	used        bool
	n, minMatch int
	maxima      [boundMemoWidth]uint64
	bound       float64
}

// wrap points the bounder at kernel k's cap; false means k has none,
// and the walker runs unpruned.
func (b *bounder) wrap(k workerKernel) bool {
	b.ub, _ = k.Kernel.(join.UpperBounded)
	return b.ub != nil
}

// boundSigs is bound over the maxima of sigs.
func (b *bounder) boundSigs(sigs []join.Sig, minMatch int) float64 {
	maxima := b.maxima[:len(sigs)]
	for i, s := range sigs {
		maxima[i] = s.Max
	}
	return b.bound(maxima, minMatch)
}

// bound evaluates the kernel's cap over perListMax for minMatch; a panic
// fails the bounder and yields +Inf, and is not remembered. Arguments
// bit-identical to a remembered evaluation's return its cap.
func (b *bounder) bound(perListMax []float64, minMatch int) (v float64) {
	var slot *boundSlot
	var key [boundMemoWidth]uint64
	if len(perListMax) <= boundMemoWidth {
		h := uint64(minMatch)
		for i, m := range perListMax {
			key[i] = math.Float64bits(m)
			h = (h ^ key[i]) * 0x9e3779b97f4a7c15
		}
		slot = &b.memo[h>>(64-boundMemoBits)]
		if slot.used && slot.n == len(perListMax) && slot.minMatch == minMatch && slot.maxima == key {
			return slot.bound
		}
	}
	defer func() {
		if r := recover(); r != nil {
			b.t.JoinPanics++
			b.failed = true
			v = math.Inf(1)
		}
	}()
	// The key was taken first: a disjunctive cap may reorder perListMax.
	v = b.ub.ScoreUpperBound(perListMax, minMatch)
	if slot != nil {
		*slot = boundSlot{used: true, n: len(perListMax), minMatch: minMatch, maxima: key, bound: v}
	}
	return v
}
