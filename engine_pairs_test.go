package bestjoin_test

// The auxiliary pair-index tier's speedup, measured
// (BenchmarkEnginePairs, recorded in BENCH_engine.json by
// scripts/benchjson.sh). TestDifferential holds pair-served answers to
// the reference ranker through every composition.

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bestjoin"
)

const pairTestDocs = 400

var (
	pairCorpusOnce sync.Once
	pairBare       *bestjoin.CompactIndex // no pair lists
	pairCompact    *bestjoin.CompactIndex
	pairBuilt      int
)

func pairSpec() bestjoin.JoinSpec {
	return bestjoin.JoinSpec{Family: "win", Alpha: 0.1, Valid: true}
}

func pairConcepts() []bestjoin.Concept {
	return []bestjoin.Concept{
		{"lenovo": 1, "dell": 0.9, "hewlett": 0.8},
		{"nba": 1, "olympics": 0.9, "basketball": 0.7},
		{"partnership": 1, "alliance": 0.8, "deal": 0.6},
	}
}

// pairTestIndex builds (once) a planted synthetic corpus with every
// pair list among the three query concepts registered for pairSpec,
// and returns it with the same index holding no lists.
func pairTestIndex(t testing.TB) (bare, lists *bestjoin.CompactIndex) {
	pairCorpusOnce.Do(func() {
		rng := rand.New(rand.NewSource(7))
		filler := strings.Fields("quartz ribbon saddle timber umbrella violet walnut yarn " +
			"zeppelin bottle curtain dolphin ember flute glacier helmet ivory jacket kernel lantern")
		planted := [][]string{
			{"lenovo", "dell", "hewlett"},
			{"nba", "olympics", "basketball"},
			{"partnership", "alliance", "deal"},
		}
		ix := bestjoin.NewIndex()
		for d := 0; d < pairTestDocs; d++ {
			words := make([]string, 120)
			for i := range words {
				words[i] = filler[rng.Intn(len(filler))]
			}
			for _, group := range planted {
				if rng.Intn(10) < 7 {
					for occ := 0; occ < 2+rng.Intn(3); occ++ {
						words[rng.Intn(len(words))] = group[rng.Intn(len(group))]
					}
				}
			}
			ix.AddText(d, strings.Join(words, " "))
		}
		pairBare = ix.Compact()
		pairCompact = pairBare.ForkPairs()
		var err error
		pairBuilt, err = bestjoin.BuildPairIndex(pairCompact, pairConcepts(), pairSpec(), 0)
		if err != nil {
			panic(err)
		}
	})
	if pairBuilt != 3 {
		t.Fatalf("BuildPairIndex registered %d pairs, want 3", pairBuilt)
	}
	return pairBare, pairCompact
}

// BenchmarkEnginePairs measures the pair tier's win on the planted
// corpus: "served" answers a two-term query off the precomputed list,
// "kernel" runs the same query over the index without lists. Identical
// top-k is asserted once up front; pairhits/op lands in
// BENCH_engine.json.
func BenchmarkEnginePairs(b *testing.B) {
	bare, c := pairTestIndex(b)
	q := bestjoin.EngineQuery{Concepts: pairConcepts()[:2], Spec: pairSpec(), K: 10}
	rp, err := bestjoin.NewEngine(c, bestjoin.EngineConfig{}).Search(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	rk, err := bestjoin.NewEngine(bare, bestjoin.EngineConfig{}).Search(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	if len(rp.Docs) != len(rk.Docs) {
		b.Fatalf("pair returned %d docs, kernel %d", len(rp.Docs), len(rk.Docs))
	}
	for i := range rp.Docs {
		if rp.Docs[i].Doc != rk.Docs[i].Doc || rp.Docs[i].Score != rk.Docs[i].Score {
			b.Fatalf("rank %d differs: pair (%d, %v) vs kernel (%d, %v)", i,
				rp.Docs[i].Doc, rp.Docs[i].Score, rk.Docs[i].Doc, rk.Docs[i].Score)
		}
	}

	run := func(b *testing.B, c *bestjoin.CompactIndex) {
		e := bestjoin.NewEngine(c, bestjoin.EngineConfig{})
		if _, err := e.Search(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Search(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(e.Stats().PairHits)/float64(b.N), "pairhits/op")
	}

	b.Run("served", func(b *testing.B) {
		run(b, c)
	})
	b.Run("kernel", func(b *testing.B) {
		run(b, bare)
	})
}
