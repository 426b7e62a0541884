package remote

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/match"
	"bestjoin/internal/naive"
	"bestjoin/internal/scorefn"
	"bestjoin/internal/shard"
)

// The kernel floor's acceptance test. The valid-matchset kernels, armed
// with the top-k floor by every worker of every topology, must return
// what grading every document exhaustively and sorting returns: the
// reference ranker scores each candidate with naive.BestValid over
// lists read straight off the index and sorts (score desc, doc asc).
// The corpus is built against the cut: two thirds of the documents are
// copies of a dozen templates, so the k-th score is shared by several
// documents and a floor that cut on equality — or an equal-scoring
// document losing its tie-break to a stale floor — would show as a
// wrong doc id; and the concepts share words, so over a fifth of the
// joins have a duplicate-unaware optimum that is not valid and the
// floor decides whether the Section VI search runs.

func floorCorpus(rng *rand.Rand) []string {
	body := func() string {
		words := make([]string, 18+rng.Intn(10))
		for i := range words {
			words[i] = remoteVocab[rng.Intn(len(remoteVocab))]
		}
		return strings.Join(words, " ")
	}
	templates := make([]string, 12)
	for i := range templates {
		templates[i] = body()
	}
	docs := make([]string, 96)
	for d := range docs {
		if d%3 == 2 {
			docs[d] = body()
		} else {
			docs[d] = templates[rng.Intn(len(templates))]
		}
	}
	return docs
}

// floorConcepts overlap pairwise, with the graded scores of a lexicon
// expansion.
func floorConcepts() []index.Concept {
	return []index.Concept{
		{"amber": 1, "basalt": 0.7, "cedar": 0.7, "ember": 0.4},
		{"cedar": 1, "delta": 0.7, "ember": 0.7, "amber": 0.4},
		{"ember": 1, "fjord": 0.7, "amber": 0.7, "delta": 0.4},
	}
}

type floorFamily struct {
	spec  engine.KernelSpec
	score func(match.Set) float64
	raw   func(match.Lists) (match.Set, float64, bool) // duplicate-unaware exhaustive optimum
}

func floorFamilies() []floorFamily {
	win, med, max := scorefn.ExpWIN{Alpha: 0.07}, scorefn.ExpMED{Alpha: 0.05}, scorefn.SumMAX{Alpha: 0.1}
	return []floorFamily{
		{engine.KernelSpec{Family: "win", Alpha: win.Alpha, Valid: true},
			func(s match.Set) float64 { return scorefn.ScoreWIN(win, s) },
			func(l match.Lists) (match.Set, float64, bool) { return naive.WIN(win, l) }},
		{engine.KernelSpec{Family: "med", Alpha: med.Alpha, Valid: true},
			func(s match.Set) float64 { return scorefn.ScoreMED(med, s) },
			func(l match.Lists) (match.Set, float64, bool) { return naive.MED(med, l) }},
		{engine.KernelSpec{Family: "max", Alpha: max.Alpha, Valid: true},
			func(s match.Set) float64 { v, _ := scorefn.ScoreMAX(max, s); return v },
			func(l match.Lists) (match.Set, float64, bool) { return naive.MAX(max, l) }},
	}
}

// referenceRanking grades every document matching at least minMatch
// concepts over its matched lists and sorts.
func referenceRanking(compact *index.Compact, concepts []index.Concept, minMatch int, score func(match.Set) float64) []engine.DocResult {
	var out []engine.DocResult
	for d := 0; d < compact.Docs(); d++ {
		var lists match.Lists
		for _, l := range compact.QueryLists(d, concepts) {
			if len(l) > 0 {
				lists = append(lists, l)
			}
		}
		if len(lists) < minMatch {
			continue
		}
		if _, s, ok := naive.BestValid(lists, score); ok && !math.IsNaN(s) {
			out = append(out, engine.DocResult{Doc: d, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

func TestFloorDifferentialAgainstReference(t *testing.T) {
	compact := buildCompact(t, floorCorpus(rand.New(rand.NewSource(15))))
	concepts := floorConcepts()
	modes := []struct {
		name     string
		mode     engine.QueryMode
		minMatch int // Query.MinMatch
		need     int // matched concepts a candidate needs
	}{{"and", engine.ModeAND, 0, len(concepts)}, {"or", engine.ModeOR, 0, 1}, {"2of3", engine.ModeDefault, 2, 2}}
	ctx := context.Background()

	for _, fam := range floorFamilies() {
		// The corpus must put the search, and ties, where the floor is.
		joins, dups := 0, 0
		for d := 0; d < compact.Docs(); d++ {
			if lists := compact.QueryLists(d, concepts); lists.Complete() {
				joins++
				if set, _, ok := fam.raw(lists); ok && !set.Valid() {
					dups++
				}
			}
		}
		t.Logf("%s: %d of %d joins carry a duplicate", fam.spec.Family, dups, joins)
		if 5*dups < joins {
			t.Fatalf("%s: %d of %d joins carry a duplicate, want a fifth", fam.spec.Family, dups, joins)
		}
		refs := make([][]engine.DocResult, len(modes))
		ties := 0
		for mi, m := range modes {
			refs[mi] = referenceRanking(compact, concepts, m.need, fam.score)
			for _, k := range []int{1, 5, 50} {
				if k < len(refs[mi]) && refs[mi][k-1].Score == refs[mi][k].Score {
					ties++
				}
			}
		}
		if ties < 4 {
			t.Fatalf("%s: the k-th score is tied at only %d of 9 cut-offs", fam.spec.Family, ties)
		}
		// Witness sets come from the floorless search: one worker, no
		// pruning, so no kernel is ever armed.
		floorless := engine.New(compact, engine.Config{Workers: 1, DisablePruning: true})

		var cuts uint64
		for _, workers := range []int{1, 2, 8} {
			ecfg := engine.Config{Workers: workers}
			single := engine.New(compact, ecfg)
			sharded, err := shard.New(compact, shard.Config{Shards: 2, Engine: ecfg})
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := NewFleet(startFleet(t, compact, 2, ecfg), fastCfg(), shard.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]engine.Searcher{"single": single, "2 shards": sharded, "remote": fleet} {
				for mi, m := range modes {
					for _, k := range []int{1, 5, 50} {
						label := fmt.Sprintf("%s workers %d %s %s k %d", fam.spec.Family, workers, name, m.name, k)
						q := engine.Query{Concepts: concepts, Spec: fam.spec, K: k, Mode: m.mode, MinMatch: m.minMatch}
						got, err := s.Search(ctx, q)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						base, err := floorless.Search(ctx, q)
						if err != nil {
							t.Fatalf("%s: floorless: %v", label, err)
						}
						if got.Partial || got.Degraded {
							t.Fatalf("%s: Partial %v Degraded %v", label, got.Partial, got.Degraded)
						}
						want := refs[mi][:min(k, len(refs[mi]))]
						if len(got.Docs) != len(want) {
							t.Fatalf("%s: %d docs, reference has %d", label, len(got.Docs), len(want))
						}
						for i, w := range want {
							g := got.Docs[i]
							if g.Doc != w.Doc || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
								t.Fatalf("%s: rank %d doc %d score %v (%#x), reference doc %d score %v (%#x)",
									label, i, g.Doc, g.Score, math.Float64bits(g.Score), w.Doc, w.Score, math.Float64bits(w.Score))
							}
							if !g.Set.Valid() || math.Float64bits(fam.score(g.Set)) != math.Float64bits(g.Score) {
								t.Fatalf("%s: rank %d doc %d witness %v is not a valid matchset scoring %v", label, i, g.Doc, g.Set, g.Score)
							}
						}
						assertSame(t, label+" vs floorless", got, base, false)
					}
				}
			}
			cuts += single.Stats().FloorCutJoins + sharded.Stats().FloorCutJoins + fleet.Stats().FloorCutJoins
		}
		if cuts == 0 {
			t.Fatalf("%s: no join was cut by the floor", fam.spec.Family)
		}
	}
}
