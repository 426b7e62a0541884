package engine

// Differential harness for max-score pruning: pruning is supposed to
// be invisible — the only observable difference between a pruned and
// an unpruned engine is how many joins ran. This property test builds
// random corpora and random queries and asserts the pruned engine's
// output — document ids, scores (bit for bit), matchsets, tie-break
// order, and the Partial flag — is identical to the unpruned engine's
// across all three scoring families, with and without the
// duplicate-avoidance wrapper, with one worker and with several, and
// with block tables built at three block sizes. scripts/check.sh runs
// it under -race,
// so the atomic floor shared across workers is exercised too.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bestjoin/internal/dedup"
	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// diffFamilies enumerates the kernel factories under test. Fresh
// factories per call: kernels are stateful and engines are long-lived.
func diffFamilies() []struct {
	name    string
	factory KernelFactory
} {
	win := scorefn.ExpWIN{Alpha: 0.07}
	med := scorefn.ExpMED{Alpha: 0.05}
	max := scorefn.SumMAX{Alpha: 0.1}
	return []struct {
		name    string
		factory KernelFactory
	}{
		{"WIN", WINJoiner(win)},
		{"MED", MEDJoiner(med)},
		{"MAX", MAXJoiner(max)},
		{"ValidWIN", ValidWINJoiner(win)},
		{"ValidMED", ValidMEDJoiner(med)},
		{"ValidMAX", ValidMAXJoiner(max)},
	}
}

// diffCorpus generates a random corpus over a small vocabulary, so
// random concepts co-occur in plenty of documents and candidate sets
// are non-trivial.
func diffCorpus(rng *rand.Rand) []string {
	vocab := []string{
		"amber", "basalt", "cedar", "delta", "ember", "fjord",
		"garnet", "harbor", "indigo", "jasper", "krill", "lumen",
	}
	docs := make([]string, 30+rng.Intn(50))
	for d := range docs {
		words := make([]string, 0, 50)
		for i := 15 + rng.Intn(35); i > 0; i-- {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		docs[d] = joinWords(words)
	}
	return docs
}

// diffConcepts draws 1–3 random concepts of 1–3 vocabulary words each
// with scores in (0, 1] (the exp families need positive scores).
func diffConcepts(rng *rand.Rand) []index.Concept {
	vocab := []string{
		"amber", "basalt", "cedar", "delta", "ember", "fjord",
		"garnet", "harbor", "indigo", "jasper", "krill", "lumen",
	}
	concepts := make([]index.Concept, 1+rng.Intn(3))
	for i := range concepts {
		c := index.Concept{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c[vocab[rng.Intn(len(vocab))]] = 1 - rng.Float64()
		}
		concepts[i] = c
	}
	return concepts
}

// assertIdentical holds two results of one query to the same answer:
// both pass the accounting invariants, agree on Partial, and rank the
// same documents with the same scores (bit for bit: both engines run
// the same kernel code on identical lists) and matchsets. Candidates is
// not compared: a walk that prunes jumps past documents it never
// confirms, as far as its floor has risen, so the tests that compare
// two walks hold the pruned count at most the exhaustive one.
func assertIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	assertResultInvariants(t, label+" got", got)
	assertResultInvariants(t, label+" want", want)
	if got.Partial != want.Partial {
		t.Fatalf("%s: Partial %v vs %v", label, got.Partial, want.Partial)
	}
	assertSameDocs(t, label, got.Docs, want.Docs)
}

func TestDifferentialPrunedVsUnpruned(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(1000 + int64(trial)))
		compact := buildCompact(t, diffCorpus(rng))
		concepts := diffConcepts(rng)
		k := 1 + rng.Intn(6)
		for _, workers := range []int{1, 4} {
			for _, fam := range diffFamilies() {
				pruned := New(compact, Config{Workers: workers})
				unpruned := New(compact, Config{Workers: workers, DisablePruning: true})
				q := Query{Concepts: concepts, Join: fam.factory, K: k}
				rp, err := pruned.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				ru, err := unpruned.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("trial %d %s workers=%d k=%d",
					trial, fam.name, workers, k)
				assertIdentical(t, label, rp, ru)
				if rp.Candidates > ru.Candidates {
					t.Fatalf("%s: pruned walk confirmed %d candidates, exhaustive %d", label, rp.Candidates, ru.Candidates)
				}
				if got := int(pruned.Stats().PrunedDocs); got != rp.Pruned {
					t.Fatalf("%s: Result.Pruned %d != stats PrunedDocs %d", label, rp.Pruned, got)
				}
				if up := unpruned.Stats().PrunedDocs; up != 0 {
					t.Fatalf("%s: unpruned engine pruned %d docs", label, up)
				}
				// Repeat the query: with its stems decoded it must
				// stay identical too.
				rp2, err := pruned.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, label+" cached", rp2, ru)
			}
		}
	}
}

// TestDifferentialCustomKernelUnbounded pins the compatibility
// contract: a query whose kernel cannot provide upper bounds (a plain
// KernelFunc) must run unpruned — every candidate joined — even on a
// pruning engine.
func TestDifferentialCustomKernelUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	compact := buildCompact(t, diffCorpus(rng))
	concepts := diffConcepts(rng)
	e := New(compact, Config{})
	win := scorefn.ExpWIN{Alpha: 0.07}
	q := Query{
		Concepts: concepts,
		Join: func() join.Kernel {
			return join.KernelFunc(func(ls match.Lists) (match.Set, float64, bool) {
				return join.WIN(win, ls)
			})
		},
		K: 3,
	}
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 0 || res.Evaluated != res.Candidates {
		t.Fatalf("unbounded kernel was pruned: %+v", res)
	}
}

// TestDifferentialDedupForwardsBounds pins that the dedup wrapper
// forwards its inner kernel's bound (so Valid* joins actually prune)
// and stays sound doing it: the valid best-join score never exceeds
// the unrestricted bound.
func TestDifferentialDedupForwardsBounds(t *testing.T) {
	inner := join.NewWINKernel(scorefn.ExpWIN{Alpha: 0.07})
	wrapped := dedup.Wrap(inner)
	maxima := []float64{0.9, 0.8, 0.7}
	var ub join.UpperBounded = wrapped
	if got, want := ub.ScoreUpperBound(maxima, 0), inner.ScoreUpperBound(maxima, 0); got != want {
		t.Fatalf("dedup wrapper bound %v, inner %v", got, want)
	}
}
