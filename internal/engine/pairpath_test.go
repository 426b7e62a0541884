package engine

// Differential harness for the auxiliary pair-index tier: like
// pruning, pair serving is supposed to be invisible — the only
// observable difference between a pair-enabled and a pair-disabled
// engine is how fast the answer arrives and what the pair counters
// say. These tests build random corpora, register pair lists with the
// real kernel, and assert bitwise-identical output across scoring
// families, worker counts, concept orders, and pruning on and off.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bestjoin/internal/index"
)

// pairSpecs enumerates the declarative kernels under test — the same
// families and rates as diffFamilies, in spec form so the pair path
// (which requires Join == nil) engages.
func pairSpecs() []KernelSpec {
	return []KernelSpec{
		{Family: "win", Alpha: 0.07},
		{Family: "med", Alpha: 0.05},
		{Family: "max", Alpha: 0.1},
		{Family: "win", Alpha: 0.07, Valid: true},
		{Family: "med", Alpha: 0.05, Valid: true},
		{Family: "max", Alpha: 0.1, Valid: true},
	}
}

// pairConceptsN draws exactly n distinct-ish random concepts from the
// differential vocabulary.
func pairConceptsN(rng *rand.Rand, n int) []index.Concept {
	vocab := []string{
		"amber", "basalt", "cedar", "delta", "ember", "fjord",
		"garnet", "harbor", "indigo", "jasper", "krill", "lumen",
	}
	concepts := make([]index.Concept, n)
	for i := range concepts {
		c := index.Concept{}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			c[vocab[rng.Intn(len(vocab))]] = 1 - rng.Float64()
		}
		concepts[i] = c
	}
	return concepts
}

// registerPairs precomputes every pair list among concepts for spec,
// unbudgeted, reporting how many registered.
func registerPairs(t *testing.T, compact *index.Compact, concepts []index.Concept, spec KernelSpec) int {
	t.Helper()
	n, err := BuildPairIndex(compact, concepts, spec, 0)
	if err != nil {
		t.Fatalf("BuildPairIndex: %v", err)
	}
	return n
}

// TestDifferentialPairServedVsKernel is the two-term acceptance
// property: a query answered off the precomputed pair list must be
// bitwise identical to the kernel path, in both concept orders, with
// one worker and several, with pruning on and off.
func TestDifferentialPairServedVsKernel(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(9000 + int64(trial)))
		docs := diffCorpus(rng)
		concepts := pairConceptsN(rng, 2)
		k := 1 + rng.Intn(6)
		for _, spec := range pairSpecs() {
			compact := buildCompact(t, docs)
			if registerPairs(t, compact, concepts, spec) == 0 {
				continue // empty intersection this draw: nothing to serve
			}
			for _, workers := range []int{1, 4} {
				for _, prune := range []bool{false, true} {
					pairEng := New(compact, Config{Workers: workers, DisablePruning: !prune})
					baseEng := New(compact, Config{Workers: workers, DisablePruning: !prune, DisablePairIndex: true})
					for _, order := range [][]index.Concept{
						{concepts[0], concepts[1]},
						{concepts[1], concepts[0]},
					} {
						q := Query{Concepts: order, Spec: spec, K: k}
						rp, err := pairEng.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						rb, err := baseEng.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("trial %d %s/%v workers=%d prune=%v k=%d",
							trial, spec.Family, spec.Valid, workers, prune, k)
						assertIdentical(t, label, rp, rb)
					}
					st := pairEng.Stats()
					if st.PairServed == 0 || st.PairHits < st.PairServed {
						t.Fatalf("trial %d %s: pair engine served %d/%d pair queries",
							trial, spec.Family, st.PairServed, st.PairHits)
					}
					if bst := baseEng.Stats(); bst.PairHits != 0 || bst.PairServed != 0 {
						t.Fatalf("trial %d %s: disabled engine touched the pair path: %+v",
							trial, spec.Family, bst)
					}
				}
			}
		}
	}
}

// TestPairPathRequiresSpec pins the planner guard: a query carrying an
// opaque Join closure (even alongside a spec) never touches the pair
// path — a pair list only answers the exact kernel that built it, and
// a closure has no comparable identity.
func TestPairPathRequiresSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	docs := diffCorpus(rng)
	concepts := pairConceptsN(rng, 2)
	spec := KernelSpec{Family: "win", Alpha: 0.07}
	compact := buildCompact(t, docs)
	if registerPairs(t, compact, concepts, spec) == 0 {
		t.Skip("empty intersection draw")
	}
	e := New(compact, Config{})
	factory, err := spec.Factory()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(context.Background(), Query{Concepts: concepts, Join: factory, Spec: spec, K: 3}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PairHits != 0 || st.PairServed != 0 {
		t.Fatalf("Join-closure query touched the pair path: %+v", st)
	}
}

// TestPairServedReplayEqualsKernel pins the serve-path accounting
// invariants directly: a completed pair serve reports the full
// intersection as candidates with no accounting shortfall.
func TestPairServedReplayEqualsKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	docs := diffCorpus(rng)
	concepts := pairConceptsN(rng, 2)
	spec := KernelSpec{Family: "med", Alpha: 0.05, Valid: true}
	compact := buildCompact(t, docs)
	if registerPairs(t, compact, concepts, spec) == 0 {
		t.Skip("empty intersection draw")
	}
	e := New(compact, Config{})
	res, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertResultInvariants(t, "pair serve", res)
	if e.Stats().PairServed != 1 {
		t.Fatalf("query was not pair-served: %+v", e.Stats())
	}
	if res.Partial {
		t.Fatal("uncancelled pair serve reported Partial")
	}
	if res.Evaluated+res.Pruned != res.Candidates {
		t.Fatalf("pair serve accounting: %d+%d != %d", res.Evaluated, res.Pruned, res.Candidates)
	}
	// The engine's kernel-path counters must not move on a pair serve.
	st := e.Stats()
	if st.JoinsRun != 0 {
		t.Fatalf("pair serve ran %d kernel joins", st.JoinsRun)
	}
}
