package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// tableSum hashes what a query reads of a concept: every document's
// id, signature and match list, and each list's capacity.
func tableSum(t *testing.T, c *index.Compact, concept index.Concept) uint64 {
	t.Helper()
	a, err := c.ConceptArrays(concept)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var scratch match.List
	for i := 0; i < a.Len(); i++ {
		doc, mask, mx := a.At(i)
		l := a.List(i, &scratch)
		fmt.Fprint(h, doc, mask, math.Float64bits(mx), len(l), cap(l))
		for _, m := range l {
			fmt.Fprint(h, m.Loc, math.Float64bits(m.Score))
		}
	}
	return h.Sum64()
}

// TestConceptTableSharedNeverWritten: the valid-matchset kernels join
// on slices of the shared concept tables and split duplicated tokens
// out of them, and a walker converts a single-stem concept's list into
// the scratch slot a table's slice filled at the pivot before, so
// every family runs its OR queries twice on one engine, at one walker
// and at several, over concepts that overlap plus one of a single
// stem; every table the queries touched must still hash as the same
// concept's table built on a fresh copy of the index that no query has
// read.
func TestConceptTableSharedNeverWritten(t *testing.T) {
	docs := testCorpus(300, 21)
	compact := buildCompact(t, docs)
	concepts := append(overlapConcepts(), index.Concept{"quartz": 1})
	for _, workers := range []int{1, 3} {
		e := New(compact, Config{Workers: workers})
		for _, fam := range []string{"win", "med", "max"} {
			spec := KernelSpec{Family: fam, Alpha: 0.07, Valid: true}
			jn, err := spec.Factory()
			if err != nil {
				t.Fatal(err)
			}
			want := oracle(buildCompact(t, docs), concepts, 1, jn, 10)
			for round := 0; round < 2; round++ {
				res, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, K: 10, Mode: ModeOR})
				if err != nil {
					t.Fatal(err)
				}
				assertSameDocs(t, fmt.Sprintf("%s, %d workers, round %d", fam, workers, round), res.Docs, want)
			}
		}
	}
	fresh := buildCompact(t, docs)
	for j, c := range concepts[:3] {
		if a, _ := compact.ConceptArrays(c); a.Table() == nil {
			t.Fatalf("concept %d has no table", j)
		}
		if got, want := tableSum(t, compact, c), tableSum(t, fresh, c); got != want {
			t.Fatalf("concept %d: the served table hashes %x, a fresh build %x", j, got, want)
		}
	}
}

// TestConceptTablesBoundedResident: with the concept budget set below
// what the stream's tables take, the engine's Health reports resident
// bytes at most the decoded stems' bytes plus the budget, and every
// answer equals the reference ranking.
func TestConceptTablesBoundedResident(t *testing.T) {
	compact := buildCompact(t, testCorpus(300, 29))
	base := testConcepts()
	first, err := compact.ConceptArrays(base[0])
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(2 * first.Table().Bytes())
	index.SetConceptBudgetForTest(compact, budget)
	e := New(compact, Config{Workers: 2})
	stems := map[string]bool{}
	var stemBytes int64
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	for round := 0; round < 12; round++ {
		// Each round weighs the concepts anew, so each is a concept the
		// index has not kept.
		concepts := make([]index.Concept, len(base))
		for j, c := range base {
			concepts[j] = index.Concept{}
			for w, s := range c {
				concepts[j][w] = s - float64(round)/64
				ss, err := compact.ConceptStems(index.Concept{w: 1})
				if err != nil {
					t.Fatal(err)
				}
				if st := ss[0]; !stems[st.Stem] {
					stems[st.Stem] = true
					stemBytes += int64(st.Arrays.Bytes())
				}
			}
		}
		res, err := e.Search(context.Background(), Query{Concepts: concepts, Join: jn, K: 8, Mode: ModeOR})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDocs(t, fmt.Sprintf("round %d", round), res.Docs, oracle(compact, concepts, 1, jn, 8))
		if h := e.Health(); h.ResidentBytes > stemBytes+budget || h.ResidentBytes <= stemBytes {
			t.Fatalf("round %d: %d resident bytes, stems %d, budget %d", round, h.ResidentBytes, stemBytes, budget)
		}
	}
}
