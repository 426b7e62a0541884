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
// wrappers that keep user-supplied scoring closures from taking the
// process down.

// KernelFactory builds one reusable join kernel. The factory itself
// must be safe for concurrent use (Search calls it once per worker);
// the kernels it returns need not be — each worker owns its kernel
// exclusively and reuses its scratch across the documents it
// evaluates. Adapt a plain one-shot function with join.KernelFunc.
type KernelFactory func() join.Kernel

// Joiner is the former name of KernelFactory, kept as an alias for
// call sites predating the kernel refactor.
type Joiner = KernelFactory

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
// which pair lists (index.PairKey.Spec) are registered and looked up.
// The index layer treats the value as opaque; only equality matters —
// a pair list answers exactly the spec that built it, so any field
// change must change the fingerprint.
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
// unknown family or a non-finite alpha (hostile specs arrive over the
// network; they must be rejected, not scored).
func (s KernelSpec) Factory() (KernelFactory, error) {
	if s.Alpha != s.Alpha || s.Alpha > math.MaxFloat64 || s.Alpha < -math.MaxFloat64 {
		return nil, fmt.Errorf("engine: kernel spec alpha %v is not finite", s.Alpha)
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

// workerKernel is one worker's kernel with its optional capabilities
// resolved once per build, not once per document.
type workerKernel struct {
	join.Kernel
	floored join.Floored  // nil without floor support, or with pruning disabled
	valid   *dedup.Kernel // nil unless the kernel is the valid-matchset wrapper
}

// buildKernel calls the query's factory, recovering a panicking
// factory to the zero workerKernel so one hostile factory cannot kill
// a worker (and with it the whole query's WaitGroup).
func buildKernel(f KernelFactory, e *Engine) (wk workerKernel) {
	defer func() {
		if r := recover(); r != nil {
			e.counters.joinPanics.Add(1)
			wk = workerKernel{}
		}
	}()
	wk.Kernel = f()
	wk.valid, _ = wk.Kernel.(*dedup.Kernel)
	if e.prune {
		wk.floored, _ = wk.Kernel.(join.Floored)
	}
	return wk
}

// safeJoin runs one kernel invocation under recover: a panic in
// SetFloor, in Reset, in Join, or injected at the KernelJoin site is
// contained to this one document. The kernel must be treated as
// poisoned after a panic — its scratch may be mid-mutation. A Floored
// kernel is armed with the document's bar first, so ok == false also
// means "ranks strictly below the k-th kept entry" (the kernel-floor
// screen, DESIGN.md).
func safeJoin(kern workerKernel, bar float64, lists match.Lists) (set match.Set, score float64, ok, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			set, score, ok, panicked = nil, 0, false, true
		}
	}()
	faultinject.MaybePanic(faultinject.KernelJoin)
	if kern.floored != nil {
		kern.floored.SetFloor(bar)
	}
	kern.Reset(nil, lists)
	set, score, ok = kern.Join()
	return
}
