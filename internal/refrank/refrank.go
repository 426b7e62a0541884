// Package refrank is the reference ranker every query path is held to:
// the paper's Definition 2 evaluated document by document. Each
// document matching at least m of the query's concepts is joined over
// its matched lists, read straight off the index with
// index.Compact.QueryLists, and the documents are sorted by score
// descending, then id ascending. The caller supplies the join — the
// engine's own kernel for a bitwise oracle, or internal/naive for the
// exhaustive one — so the package knows nothing of the engine, and the
// engine's own tests can import it.
package refrank

import (
	"math"
	"slices"
	"sort"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// Join is a best-join: the best matchset of lists, its score, and
// whether one exists. It may reuse the memory of the set it returns.
type Join func(match.Lists) (match.Set, float64, bool)

// Kernel adapts a reusable kernel into a Join.
func Kernel(k join.Kernel) Join {
	return func(lists match.Lists) (match.Set, float64, bool) {
		k.Reset(nil, lists)
		return k.Join()
	}
}

// Doc is one ranked document: its id, score and witness matchset. Its
// fields are those of engine.DocResult, so one converts to the other.
type Doc struct {
	Doc   int
	Score float64
	Set   match.Set
}

// Rank ranks the documents of c that match at least m of concepts (a
// document matches a concept when its list under it is non-empty).
// Each is joined over its non-empty lists, in concept order; a join
// that finds nothing or scores NaN ranks nothing. qualifying counts
// the documents matching at least m concepts, joined or not: what an
// exhaustive candidate walk confirms. Witnesses are cloned.
//
// Documents are read off the postings of the concepts' member words,
// so ids may be sparse: a document matching no concept never
// qualifies, since m is at least 1.
func Rank(c *index.Compact, concepts []index.Concept, m int, join Join) (ranked []Doc, qualifying int) {
	var ids []int
	for _, concept := range concepts {
		for word := range concept {
			for _, p := range c.Postings(word) {
				ids = append(ids, p.Doc)
			}
		}
	}
	slices.Sort(ids)
	for _, d := range slices.Compact(ids) {
		var matched match.Lists
		for _, l := range c.QueryLists(d, concepts) {
			if len(l) > 0 {
				matched = append(matched, l)
			}
		}
		if len(matched) < max(m, 1) {
			continue
		}
		qualifying++
		if set, score, ok := join(matched); ok && !math.IsNaN(score) {
			ranked = append(ranked, Doc{Doc: d, Score: score, Set: set.Clone()})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score > ranked[j].Score
		}
		return ranked[i].Doc < ranked[j].Doc
	})
	return ranked, qualifying
}
