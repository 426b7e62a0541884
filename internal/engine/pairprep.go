package engine

import (
	"slices"
	"sync"
)

// Demand-filled pair lists. A process builds lists for its own kernel
// spec at start-up, but the spec that matters is the one its queries
// carry: a shard process serves whatever spec the coordinator puts on
// the wire. So the engine fills the cache itself. The first spec-only
// query whose fingerprint has no lists on the live snapshot starts a
// background build of the plan for that spec, on a private fork of the
// snapshot's index (index.Compact.ForkPairs), and publishes the result
// with AttachPairs — same epoch, same answers, faster two-term
// queries from then on. The triggering query, and every query until
// the attach, takes the kernel path as before.

// maxPreparedSpecs bounds the background builds per epoch. The kernel
// spec's alpha is continuous, so distinct fingerprints are unbounded;
// a fleet serves one or two. Four keeps the lists held at
// 4 × the plan's budget whatever the query stream does.
const maxPreparedSpecs = 4

// pairPlanning is what SetPairPlan hands the engine.
type pairPlanning struct {
	plan   PairPlan
	budget int
	notify func(spec KernelSpec, lists int, err error)
}

// pairPrep records which fingerprints have had a background build
// started in one epoch — running, attached, failed or empty, a
// fingerprint is built at most once per epoch. SwapIndex starts a
// fresh record with the new epoch.
type pairPrep struct {
	mu      sync.Mutex
	started []uint64
}

// claim reports whether the caller should start fp's build.
func (p *pairPrep) claim(fp uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.started) >= maxPreparedSpecs || slices.Contains(p.started, fp) {
		return false
	}
	p.started = append(p.started, fp)
	return true
}

// SetPairPlan arms demand-filled pair lists: plan is the pair order
// (PlanPairs, on the whole index even when this engine serves a
// partition), budgetBytes bounds the lists built per kernel spec as in
// BuildPairPlan, and notify — optional — is called once per finished
// build, off any query's goroutine, with the number of lists attached
// or the error that abandoned the build. The plan is data that arrives
// with an index: set it before the SwapIndex that brings the index it
// was planned on; it carries over swaps that bring no new plan. An
// engine with Config.DisablePairIndex never builds.
func (e *Engine) SetPairPlan(plan PairPlan, budgetBytes int, notify func(spec KernelSpec, lists int, err error)) {
	e.planning.Store(&pairPlanning{plan: plan, budget: budgetBytes, notify: notify})
}

// preparePairs starts the background build for a spec-only query's
// fingerprint when snap has no lists for it. The steady state — lists
// present — costs a search of snap.specs and nothing else.
func (e *Engine) preparePairs(snap *snapshot, spec KernelSpec, fp uint64) {
	if _, ok := slices.BinarySearch(snap.specs, fp); ok {
		return
	}
	pl, prep := e.planning.Load(), snap.prep
	if pl == nil || pl.plan.Len() == 0 || !prep.claim(fp) {
		return
	}
	// The goroutine ends with its build and nothing waits for it but
	// tests: a build abandoned by process exit has only written to its
	// private fork. It holds prep, not snap, so a swapped-out index is
	// not kept alive by a queued build.
	e.builds.Add(1)
	go func() {
		defer e.builds.Done()
		lists, dropped, err := e.buildPairs(prep, pl, spec)
		if !dropped && pl.notify != nil {
			pl.notify(spec, lists, err)
		}
	}()
}

// buildPairs runs one background build and attaches its lists. dropped
// means a SwapIndex replaced the epoch the build was for, before or
// during it: nothing is published and the next query restarts the
// build on the new snapshot. A failed build (a panicking kernel is
// recovered into err) publishes nothing either. Builds run one at a
// time, so each starts from the lists the previous one attached and
// only a SwapIndex can beat it to the snapshot pointer.
func (e *Engine) buildPairs(prep *pairPrep, pl *pairPlanning, spec KernelSpec) (lists int, dropped bool, err error) {
	e.building.Lock()
	defer e.building.Unlock()
	base := e.snap.Load()
	if base.prep != prep {
		return 0, true, nil
	}
	fork := base.idx.ForkPairs()
	lists, err = BuildPairPlan(fork, pl.plan, spec, pl.budget)
	if err != nil || lists == 0 {
		return 0, false, err
	}
	return lists, !e.AttachPairs(Snapshot{snap: base}, fork), nil
}
