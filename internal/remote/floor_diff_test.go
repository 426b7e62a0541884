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

// The kernel floors' acceptance test. The kernels that take the top-k
// floor — the valid-matchset wrappers, which stop their search under
// it, and the WIN and MED kernels, wrapped or bare, which screen each
// run by its smallest window — armed by every worker of every
// topology, must return what grading every document exhaustively and
// sorting returns: the reference ranker scores each candidate with
// internal/naive over lists read straight off the index and sorts
// (score desc, doc asc). The corpora are built against the cuts: two
// thirds of the mixed one's documents are copies of a dozen templates,
// and the tied one is nothing but copies of five, so the k-th score is
// shared by several documents (by a fifth of the corpus) and a floor
// that cut on equality — or an equal-scoring document losing its
// tie-break to a stale floor — would show as a wrong doc id; and the
// concepts share words, so over a fifth of the joins have a
// duplicate-unaware optimum that is not valid and the floor decides
// whether the Section VI search runs. A word all three concepts share
// also puts a window of zero in nearly every document, under which the
// window screen cuts nothing; the bare kernels, which have no other
// cut, are therefore asked disjoint concepts, where the windows differ
// and the screen decides; conjunctive and disjunctive modes arm it
// alike. Every query runs twice: with a floor of its own, and with a
// shared floor (Query.Floor; the wire floor on the remote rows) raised
// beforehand to the reference's k-th score — true, since k documents
// score at least that. A member whose own k-th kept score equals it
// prunes the ties it has lost on document id; one whose kept scores sit
// below it (a shard holding fewer than k such documents) may prune on
// score alone, or the merge loses the low ids it holds.

// floorCorpus draws 96 documents: copies of the given number of
// templates, every fresh-th one (none when fresh is 0) a body of its
// own.
func floorCorpus(rng *rand.Rand, templates, fresh int) []string {
	body := func() string {
		words := make([]string, 18+rng.Intn(10))
		for i := range words {
			words[i] = remoteVocab[rng.Intn(len(remoteVocab))]
		}
		return strings.Join(words, " ")
	}
	tmpl := make([]string, templates)
	for i := range tmpl {
		tmpl[i] = body()
	}
	docs := make([]string, 96)
	for d := range docs {
		if fresh > 0 && d%fresh == fresh-1 {
			docs[d] = body()
		} else {
			docs[d] = tmpl[rng.Intn(len(tmpl))]
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

// floorConceptsDisjoint share no word: no duplicates, and windows that
// differ from document to document.
func floorConceptsDisjoint() []index.Concept {
	return []index.Concept{
		{"amber": 1, "basalt": 0.7},
		{"cedar": 1, "delta": 0.7},
		{"ember": 1, "fjord": 0.7},
	}
}

type floorFamily struct {
	spec  engine.KernelSpec
	score func(match.Set) float64
	raw   func(match.Lists) (match.Set, float64, bool) // duplicate-unaware exhaustive optimum
}

func floorFamilies() []floorFamily {
	win, med, max := scorefn.ExpWIN{Alpha: 0.07}, scorefn.ExpMED{Alpha: 0.05}, scorefn.SumMAX{Alpha: 0.1}
	fams := []floorFamily{
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
	// The bare WIN and MED kernels take the floor too (the window
	// screen); a bare MAX kernel takes none.
	for _, f := range fams[:2] {
		f.spec.Valid = false
		fams = append(fams, f)
	}
	return fams
}

// referenceRanking grades every document matching at least minMatch
// concepts over its matched lists — exhaustively, over valid matchsets
// only when the family's spec says so — and sorts.
func referenceRanking(compact *index.Compact, concepts []index.Concept, minMatch int, fam floorFamily) []engine.DocResult {
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
		_, s, ok := fam.raw(lists)
		if fam.spec.Valid {
			_, s, ok = naive.BestValid(lists, fam.score)
		}
		if ok && !math.IsNaN(s) {
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
	rng := rand.New(rand.NewSource(15))
	t.Run("mixed", func(t *testing.T) { floorDifferential(t, floorCorpus(rng, 12, 3)) })
	t.Run("tied", func(t *testing.T) { floorDifferential(t, floorCorpus(rng, 5, 0)) })
}

func floorDifferential(t *testing.T, corpus []string) {
	compact := buildCompact(t, corpus)
	modes := []struct {
		name     string
		mode     engine.QueryMode
		minMatch int // Query.MinMatch
		need     int // matched concepts a candidate needs
	}{{"and", engine.ModeAND, 0, 3}, {"or", engine.ModeOR, 0, 1}, {"2of3", engine.ModeDefault, 2, 2}}
	ctx := context.Background()

	for _, fam := range floorFamilies() {
		family := fmt.Sprintf("%s valid %v", fam.spec.Family, fam.spec.Valid)
		concepts := floorConcepts()
		if !fam.spec.Valid {
			concepts = floorConceptsDisjoint()
		}
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
		t.Logf("%s: %d of %d joins carry a duplicate", family, dups, joins)
		if fam.spec.Valid && 5*dups < joins {
			t.Fatalf("%s: %d of %d joins carry a duplicate, want a fifth", family, dups, joins)
		}
		refs := make([][]engine.DocResult, len(modes))
		ties := 0
		for mi, m := range modes {
			refs[mi] = referenceRanking(compact, concepts, m.need, fam)
			for _, k := range []int{1, 5, 50} {
				if k < len(refs[mi]) && refs[mi][k-1].Score == refs[mi][k].Score {
					ties++
				}
			}
		}
		if ties < 4 {
			t.Fatalf("%s: the k-th score is tied at only %d of 9 cut-offs", family, ties)
		}
		// Witness sets come from the floorless search: one worker, no
		// pruning, so no kernel is ever armed.
		floorless := engine.New(compact, engine.Config{Workers: 1, DisablePruning: true})

		var cuts, windowCuts uint64
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
						for _, preRaised := range []bool{false, true} {
							if preRaised && k > len(refs[mi]) {
								continue
							}
							label := fmt.Sprintf("%s workers %d %s %s k %d pre-raised %v", family, workers, name, m.name, k, preRaised)
							q := engine.Query{Concepts: concepts, Spec: fam.spec, K: k, Mode: m.mode, MinMatch: m.minMatch}
							if preRaised {
								q.Floor = engine.NewGlobalFloor()
								q.Floor.Raise(refs[mi][k-1].Score)
							}
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
								if fam.spec.Valid && !g.Set.Valid() || math.Float64bits(fam.score(g.Set)) != math.Float64bits(g.Score) {
									t.Fatalf("%s: rank %d doc %d witness %v is not a matchset (valid: %v) scoring %v", label, i, g.Doc, g.Set, fam.spec.Valid, g.Score)
								}
							}
							assertSame(t, label+" vs floorless", got, base)
						}
					}
				}
			}
			for _, st := range []engine.Stats{single.Stats(), sharded.Stats(), fleet.Stats()} {
				if st.WindowCutJoins > st.FloorCutJoins || st.FloorCutJoins > st.JoinsRun {
					t.Fatalf("%s: WindowCutJoins %d, FloorCutJoins %d, JoinsRun %d are not nested", family, st.WindowCutJoins, st.FloorCutJoins, st.JoinsRun)
				}
				cuts, windowCuts = cuts+st.FloorCutJoins, windowCuts+st.WindowCutJoins
			}
		}
		if cuts == 0 {
			t.Fatalf("%s: no join was cut by the floor", family)
		}
		// A bare kernel's only cut is the screen's, and it must have
		// bitten; under the shared-word concepts it has nothing to bite.
		if !fam.spec.Valid && windowCuts != cuts || fam.spec.Family == "max" && windowCuts != 0 {
			t.Fatalf("%s: %d window cuts among %d floor cuts", family, windowCuts, cuts)
		}
	}
}
