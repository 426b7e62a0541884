package engine

import (
	"sort"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// BuildPairIndex registers on idx a pair list — the kernel's score and
// witness on every document holding both concepts — for each unordered
// pair of concepts, costliest pair first, until budgetBytes of encoded
// lists are stored (≤ 0 means unlimited). A pair's cost is the product
// of its two concepts' compressed posting bytes on idx; ties keep the
// order of concepts, and a concept with no postings pairs with nothing.
// Returns the number of pairs registered.
//
// No query is served from these lists: every query runs the candidate
// walk (union.go).
//
// Deprecated: kept for bench/ only; goes with ROADMAP item 1. The load
// harness defines its pair2 query class as the pairs this registers.
func BuildPairIndex(idx *index.Compact, concepts []index.Concept, spec KernelSpec, budgetBytes int) (int, error) {
	factory, err := spec.Factory()
	if err != nil {
		return 0, err
	}
	type cand struct{ a, b, cost int }
	var cands []cand
	for i := 0; i < len(concepts); i++ {
		ci := idx.ConceptPostingBytes(concepts[i])
		if ci == 0 {
			continue
		}
		for j := i + 1; j < len(concepts); j++ {
			if cj := idx.ConceptPostingBytes(concepts[j]); cj != 0 {
				cands = append(cands, cand{a: i, b: j, cost: ci * cj})
			}
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
	fp := spec.Fingerprint()
	kern := factory()
	join := func(lists match.Lists) (match.Set, float64, bool) {
		kern.Reset(nil, lists)
		return kern.Join()
	}
	added, spent := 0, 0
	for _, cd := range cands {
		if budgetBytes > 0 && spent >= budgetBytes {
			break
		}
		if n, ok := idx.AddConceptPairs(concepts[cd.a], concepts[cd.b], fp, join); ok {
			added++
			spent += n
		}
	}
	return added, nil
}
