package main

import (
	"fmt"
	"math"
	"sort"

	"bestjoin"
	"bestjoin/internal/index"
	"bestjoin/internal/match"
	"bestjoin/internal/naive"
	"bestjoin/internal/scorefn"
)

// The reference ranker is Fagin et al.'s definition of the answer any
// threshold-style algorithm must reproduce: grade every document, then
// sort. It shares nothing with the engine: match lists come from the
// flat postings (never blocks, pairs or caches) and scores from the
// exhaustive enumerator of internal/naive.

// ranked is one row of a reference ranking.
type ranked struct {
	Doc   int
	Score float64
}

// oracle grades documents for one served index.
type oracle struct {
	idx    *index.Compact
	lex    *bestjoin.Lexicon
	score  func(match.Set) float64
	byTerm map[string]map[int]match.List // term → doc → concept match list
}

func newOracle(idx *index.Compact, family string) (*oracle, error) {
	o := &oracle{idx: idx, lex: bestjoin.BuiltinLexicon(), byTerm: map[string]map[int]match.List{}}
	switch family {
	case "win":
		o.score = func(s match.Set) float64 { return scorefn.ScoreWIN(scorefn.ExpWIN{Alpha: alpha}, s) }
	case "med":
		o.score = func(s match.Set) float64 { return scorefn.ScoreMED(scorefn.ExpMED{Alpha: alpha}, s) }
	default:
		return nil, fmt.Errorf("oracle: no reference scoring for family %q", family)
	}
	return o, nil
}

// conceptLists is Compact.ConceptList for every document at once: per
// position the best score among the concept's words, sorted by location.
// (ConceptList itself decodes every posting list per document, which is
// quadratic over a corpus; TestConceptListsMatchQueryLists pins equality.)
func conceptLists(idx *index.Compact, c index.Concept) map[int]match.List {
	best := map[int]map[int]float64{}
	for word, score := range c {
		for _, p := range idx.Postings(word) {
			m := best[p.Doc]
			if m == nil {
				m = map[int]float64{}
				best[p.Doc] = m
			}
			if s, ok := m[p.Pos]; !ok || score > s {
				m[p.Pos] = score
			}
		}
	}
	out := make(map[int]match.List, len(best))
	for doc, m := range best {
		l := make(match.List, 0, len(m))
		for pos, s := range m {
			l = append(l, match.Match{Loc: pos, Score: s})
		}
		l.Sort()
		out[doc] = l
	}
	return out
}

func (o *oracle) lists(term string) map[int]match.List {
	if l, ok := o.byTerm[term]; ok {
		return l
	}
	l := conceptLists(o.idx, expandConcept(o.lex, term))
	o.byTerm[term] = l
	return l
}

// eachCandidate calls fn with the match lists of every document q
// would join: every concept matched for AND; for OR/m-of-n exactly the
// matched concepts of documents matching at least m (1 for plain OR).
func (o *oracle) eachCandidate(q query, fn func(doc int, lists match.Lists)) {
	per := make([]map[int]match.List, len(q.Terms))
	for j, t := range q.Terms {
		per[j] = o.lists(t)
	}
	need := len(q.Terms)
	if q.Mode == "or" {
		need = 1
	}
	if q.M > 0 {
		need = q.M
	}
	for doc := 0; doc < o.idx.Docs(); doc++ {
		var lists match.Lists
		for j := range per {
			if l := per[j][doc]; len(l) > 0 {
				lists = append(lists, l)
			}
		}
		if len(lists) >= need && len(lists) > 0 {
			fn(doc, lists)
		}
	}
}

// topK grades every candidate document of q and returns the k best,
// score descending then doc ascending.
func (o *oracle) topK(q query, k int) []ranked {
	var all []ranked
	o.eachCandidate(q, func(doc int, lists match.Lists) {
		if _, s, ok := naive.BestValid(lists, o.score); ok && !math.IsNaN(s) {
			all = append(all, ranked{doc, s})
		}
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// checkAnswer compares a server answer with the reference ranking:
// same documents, same order, same scores to the bit.
func checkAnswer(a *answer, want []ranked) error {
	if len(a.Docs) != len(want) {
		return fmt.Errorf("got %d documents, reference has %d", len(a.Docs), len(want))
	}
	for i, w := range want {
		g := a.Docs[i]
		if g.Doc != w.Doc || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("rank %d: got doc %d score %v, reference doc %d score %v", i+1, g.Doc, g.Score, w.Doc, w.Score)
		}
	}
	return nil
}
