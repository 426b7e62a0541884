package engine

import (
	"fmt"
	"sort"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// Pair lists are a cache of kernel outputs, not index content: which
// pairs deserve a list depends only on the corpus (the plan), what a
// list holds depends on the kernel spec that fills it (the build). The
// two halves are separate so one plan — computed once, on the whole
// index — can be built for any spec on any partition of that index.

// PairPlan is the spec-independent half of the pair tier: concept
// pairs in the order their lists should be built, costliest first.
// The zero PairPlan plans nothing.
type PairPlan struct {
	pairs [][2]index.Concept
}

// Len returns the number of planned pairs.
func (p PairPlan) Len() int { return len(p.pairs) }

// PlanPairs orders every unordered two-concept combination of concepts
// by the product of the two concepts' compressed posting bytes on idx
// — the classic frequency × length model: the pairs whose posting
// products are largest are exactly the common-word queries the kernel
// path handles worst, and (by the same product) the ones whose
// intersections are large enough to be worth precomputing. Ties keep
// the order of concepts; a concept with no postings pairs with
// nothing. No kernel runs.
//
// Plan on the whole index even when the lists will be built on a
// partition of it: posting bytes rank differently in each partition,
// and shards that plan for themselves disagree about which pairs are
// served.
func PlanPairs(idx *index.Compact, concepts []index.Concept) PairPlan {
	type cand struct {
		a, b int
		cost int
	}
	var cands []cand
	for i := 0; i < len(concepts); i++ {
		ci := idx.ConceptPostingBytes(concepts[i])
		if ci == 0 {
			continue
		}
		for j := i + 1; j < len(concepts); j++ {
			cj := idx.ConceptPostingBytes(concepts[j])
			if cj == 0 {
				continue
			}
			cands = append(cands, cand{a: i, b: j, cost: ci * cj})
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].cost != cands[y].cost {
			return cands[x].cost > cands[y].cost
		}
		if cands[x].a != cands[y].a {
			return cands[x].a < cands[y].a
		}
		return cands[x].b < cands[y].b
	})
	plan := PairPlan{pairs: make([][2]index.Concept, len(cands))}
	for i, cd := range cands {
		plan.pairs[i] = [2]index.Concept{concepts[cd.a], concepts[cd.b]}
	}
	return plan
}

// BuildPairPlan registers on idx the pair lists of plan for one kernel
// spec, in plan order, until budgetBytes of encoded lists have been
// stored (≤ 0 means unlimited). The budget counts the bytes stored on
// idx, so a partition — whose lists are shorter — registers a longer
// prefix of the plan than the whole index would.
//
// The lists are built by running the spec's own kernel over every
// document in each pair's intersection, so a pair-served query
// returns bitwise-identical scores. idx must not be serving queries
// (the engine's background build works on a private copy, see
// pairprep.go). Returns the number of pairs registered.
func BuildPairPlan(idx *index.Compact, plan PairPlan, spec KernelSpec, budgetBytes int) (added int, err error) {
	factory, err := spec.Factory()
	if err != nil {
		return 0, err
	}
	defer func() {
		// A kernel that panics during a build aborts it; the pairs
		// registered before the panic are each internally complete and
		// stay.
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: pair-index build panicked: %v", r)
		}
	}()
	fp := spec.Fingerprint()
	kern := factory()
	join := func(lists match.Lists) (match.Set, float64, bool) {
		kern.Reset(nil, lists)
		return kern.Join()
	}
	spent := 0
	for _, p := range plan.pairs {
		if budgetBytes > 0 && spent >= budgetBytes {
			break
		}
		n, ok := idx.AddConceptPairs(p[0], p[1], fp, join)
		if ok {
			added++
			spent += n
		}
	}
	return added, nil
}

// BuildPairIndex selects and registers auxiliary pair lists for a
// kernel spec on one index: PlanPairs followed by BuildPairPlan. Call
// at build time, before the index starts serving. Returns the number
// of pairs registered.
func BuildPairIndex(idx *index.Compact, concepts []index.Concept, spec KernelSpec, budgetBytes int) (added int, err error) {
	return BuildPairPlan(idx, PlanPairs(idx, concepts), spec, budgetBytes)
}
