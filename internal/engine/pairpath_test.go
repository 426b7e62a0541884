package engine

// Unit tests of the auxiliary pair-index tier's serve path: which
// queries it takes, and what a serve counts. TestDifferential (the root
// package) holds pair-served answers to the reference ranker, in both
// concept orders, on every topology.

import (
	"context"
	"testing"
)

// TestPairPathRequiresSpec pins the planner guard: a query carrying an
// opaque Join closure (even alongside a spec) never touches the pair
// path — a pair list only answers the exact kernel that built it, and
// a closure has no comparable identity.
func TestPairPathRequiresSpec(t *testing.T) {
	concepts := testConcepts()[:2]
	spec := KernelSpec{Family: "win", Alpha: 0.07}
	compact := buildCompact(t, testCorpus(80, 34))
	if n, err := BuildPairIndex(compact, concepts, spec, 0); err != nil || n == 0 {
		t.Fatalf("BuildPairIndex: %d lists, %v", n, err)
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
	concepts := testConcepts()[:2]
	spec := KernelSpec{Family: "med", Alpha: 0.05, Valid: true}
	compact := buildCompact(t, testCorpus(80, 35))
	if n, err := BuildPairIndex(compact, concepts, spec, 0); err != nil || n == 0 {
		t.Fatalf("BuildPairIndex: %d lists, %v", n, err)
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
