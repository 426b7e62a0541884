package bestjoin_test

// Root-level acceptance for the auxiliary pair-index tier: pair lists
// must be invisible through every composition — single engine,
// doc-partitioned shard coordinator (where Partition splits each pair
// list by shard), AND / OR / m-of-n modes — and the
// speedup must be measurable (BenchmarkEnginePairs, recorded in
// BENCH_engine.json by scripts/benchjson.sh).

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bestjoin"
	"bestjoin/internal/shard"
)

const pairTestDocs = 400

var (
	pairCorpusOnce sync.Once
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
// pair list among the three query concepts registered for pairSpec.
func pairTestIndex(t testing.TB) *bestjoin.CompactIndex {
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
		pairCompact = ix.Compact()
		var err error
		pairBuilt, err = bestjoin.BuildPairIndex(pairCompact, pairConcepts(), pairSpec(), 0)
		if err != nil {
			panic(err)
		}
	})
	if pairBuilt != 3 {
		t.Fatalf("BuildPairIndex registered %d pairs, want 3", pairBuilt)
	}
	return pairCompact
}

// assertSameDocs compares ranked results. Candidates is compared only
// when wantCand is set, which callers do for conjunctive queries only:
// a ranked union's confirmed-pivot count depends on how far the floor
// had risen when the walk reached each pivot — on worker timing, and
// for a sharded union on each shard's own floor — while the returned
// ranking must still be identical.
func assertSameDocs(t *testing.T, label string, got, want *bestjoin.EngineResult, wantCand bool) {
	t.Helper()
	if got.Partial != want.Partial {
		t.Fatalf("%s: Partial %v vs %v", label, got.Partial, want.Partial)
	}
	if wantCand && got.Candidates != want.Candidates {
		t.Fatalf("%s: Candidates %d vs %d", label, got.Candidates, want.Candidates)
	}
	if len(got.Docs) != len(want.Docs) {
		t.Fatalf("%s: %d docs vs %d", label, len(got.Docs), len(want.Docs))
	}
	for i := range got.Docs {
		g, w := got.Docs[i], want.Docs[i]
		if g.Doc != w.Doc || g.Score != w.Score {
			t.Fatalf("%s: rank %d (%d, %v) vs (%d, %v)", label, i, g.Doc, g.Score, w.Doc, w.Score)
		}
		if len(g.Set) != len(w.Set) {
			t.Fatalf("%s: rank %d matchset sizes differ", label, i)
		}
		for j := range g.Set {
			if g.Set[j] != w.Set[j] {
				t.Fatalf("%s: rank %d matchset %v vs %v", label, i, g.Set, w.Set)
			}
		}
	}
}

// TestShardedPairDifferential pins the composition contract: for
// two-term (pair-served), three-term (pair-tightened bounds), ranked
// union, and m-of-n queries, a pair-enabled engine — single or
// sharded 2/4 ways — answers identically to the pair-disabled single
// engine.
func TestShardedPairDifferential(t *testing.T) {
	c := pairTestIndex(t)
	concepts := pairConcepts()
	queries := map[string]bestjoin.EngineQuery{
		"two-term":   {Concepts: concepts[:2], Spec: pairSpec(), K: 7},
		"swapped":    {Concepts: []bestjoin.Concept{concepts[1], concepts[0]}, Spec: pairSpec(), K: 7},
		"three-term": {Concepts: concepts, Spec: pairSpec(), K: 5},
		"union":      {Concepts: concepts[:2], Spec: pairSpec(), K: 7, Mode: bestjoin.ModeOR},
		"m-of-n":     {Concepts: concepts, Spec: pairSpec(), K: 5, Mode: bestjoin.ModeOR, MinMatch: 2},
	}
	base := bestjoin.NewEngine(c, bestjoin.EngineConfig{DisablePairIndex: true})
	exhaustive := bestjoin.NewEngine(c, bestjoin.EngineConfig{DisablePairIndex: true, DisablePruning: true})
	for name, q := range queries {
		want, err := base.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		single := bestjoin.NewEngine(c, bestjoin.EngineConfig{})
		got, err := single.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		conjunctive := q.Mode != bestjoin.ModeOR
		assertSameDocs(t, name+"/single", got, want, conjunctive)
		if !conjunctive {
			// A pruned walk may stop early but never confirms a pivot the
			// exhaustive walk does not.
			full, err := exhaustive.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Candidates > full.Candidates {
				t.Fatalf("%s/single: pruned walk confirmed %d pivots, exhaustive %d", name, got.Candidates, full.Candidates)
			}
		}
		if name == "two-term" || name == "swapped" {
			if st := single.Stats(); st.PairServed != 1 {
				t.Fatalf("%s: single engine not pair-served: %+v", name, st)
			}
		}
		for _, shards := range []int{2, 4} {
			se, err := shard.New(c, shard.Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			got, err := se.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameDocs(t, name+"/sharded", got, want, conjunctive)
			if name == "two-term" {
				// The shard rollup must surface the children's pair
				// counters: every shard holding part of the pair's doc
				// set served its slice off the partitioned pair list.
				if st := se.Stats(); st.PairServed == 0 || st.PairHits < st.PairServed {
					t.Fatalf("shards=%d: rollup lost pair counters: PairHits=%d PairServed=%d",
						shards, st.PairHits, st.PairServed)
				}
			}
		}
	}
}

// BenchmarkEnginePairs measures the pair tier's two wins on the same
// corpus: "served" answers a two-term query off the precomputed list
// (vs the kernel path on a pair-disabled engine), and "bounds" runs
// the three-term query whose per-candidate caps the pair lists
// tighten. Identical top-k is asserted once up front; pairhits/op and
// pairboundprunes/op land in BENCH_engine.json.
func BenchmarkEnginePairs(b *testing.B) {
	c := pairTestIndex(b)
	q2 := bestjoin.EngineQuery{Concepts: pairConcepts()[:2], Spec: pairSpec(), K: 10}
	q3 := bestjoin.EngineQuery{Concepts: pairConcepts(), Spec: pairSpec(), K: 10}

	for _, q := range []bestjoin.EngineQuery{q2, q3} {
		pe := bestjoin.NewEngine(c, bestjoin.EngineConfig{})
		ke := bestjoin.NewEngine(c, bestjoin.EngineConfig{DisablePairIndex: true})
		rp, err := pe.Search(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		rk, err := ke.Search(context.Background(), q)
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
	}

	run := func(b *testing.B, cfg bestjoin.EngineConfig, q bestjoin.EngineQuery) {
		e := bestjoin.NewEngine(c, cfg)
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
		st := e.Stats()
		b.ReportMetric(float64(st.PairHits)/float64(b.N), "pairhits/op")
		b.ReportMetric(float64(st.PairBoundPrunes)/float64(b.N), "pairboundprunes/op")
	}

	b.Run("served", func(b *testing.B) {
		run(b, bestjoin.EngineConfig{}, q2)
		// The arm is vacuous unless queries actually hit the pair list.
	})
	b.Run("kernel", func(b *testing.B) {
		run(b, bestjoin.EngineConfig{DisablePairIndex: true, CacheLists: 1 << 14}, q2)
	})
	b.Run("bounds", func(b *testing.B) {
		run(b, bestjoin.EngineConfig{}, q3)
	})
	b.Run("nobounds", func(b *testing.B) {
		run(b, bestjoin.EngineConfig{DisablePairIndex: true, CacheLists: 1 << 14}, q3)
	})
}
