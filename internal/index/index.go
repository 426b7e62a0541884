// Package index is an in-memory inverted index over tokenized
// documents. The paper (Section II, footnote 1) notes that match lists
// need not be computed by scanning documents online: they can be
// derived from precomputed inverted lists, with a match list for a
// general concept (e.g. "PC maker") obtained by merging the inverted
// lists of specific terms ("Lenovo", "Dell", …) with their scores.
// This package implements that substrate: postings are keyed by Porter
// stem and sorted by (document, position), and ConceptList performs
// the scored multi-way merge.
package index

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// Posting is one occurrence of a stem: the document it appears in and
// its token position there.
type Posting struct {
	Doc int
	Pos int
}

// Index is an inverted index over documents added with Add.
type Index struct {
	postings map[string][]Posting
	docs     int
	// stems memoizes text.Stem per distinct token seen by Add: a corpus
	// repeats a small vocabulary, and the stemmer is most of what
	// indexing a token costs.
	stems map[string]string
}

// New returns an empty index.
func New() *Index {
	return &Index{postings: make(map[string][]Posting), stems: make(map[string]string)}
}

// Add indexes one document's tokens under the given document id.
// Documents must be added in non-decreasing id order for postings to
// stay sorted.
func (ix *Index) Add(doc int, tokens []text.Token) {
	for _, t := range tokens {
		stem, ok := ix.stems[t.Word]
		if !ok {
			stem = text.Stem(t.Word)
			ix.stems[t.Word] = stem
		}
		ix.postings[stem] = append(ix.postings[stem], Posting{Doc: doc, Pos: t.Pos})
	}
	if doc+1 > ix.docs {
		ix.docs = doc + 1
	}
}

// AddText tokenizes and indexes a raw document.
func (ix *Index) AddText(doc int, body string) {
	ix.Add(doc, text.Tokenize(body))
}

// Docs returns the number of documents (max added id + 1).
func (ix *Index) Docs() int { return ix.docs }

// Postings returns the posting list of a word (stemmed internally),
// sorted by (doc, position). The returned slice is shared; callers
// must not modify it.
func (ix *Index) Postings(word string) []Posting {
	return ix.postings[text.Stem(word)]
}

// DocFreq returns the number of distinct documents containing the
// word.
func (ix *Index) DocFreq(word string) int {
	n, last := 0, -1
	for _, p := range ix.postings[text.Stem(word)] {
		if p.Doc != last {
			n++
			last = p.Doc
		}
	}
	return n
}

// Concept is a scored disjunction of words: the specific terms whose
// inverted lists together form the match list of one general query
// term, each with the score its occurrences carry.
type Concept map[string]float64

// Finite reports whether every member-word weight is a finite number.
// A NaN or ±Inf weight would poison every score-bound comparison, so
// nothing is built from, and no query is served for, such a concept.
func (c Concept) Finite() bool {
	for _, s := range c {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return false
		}
	}
	return true
}

// ConceptKey hashes a concept to a stable 64-bit key, independent of
// map iteration order: the identity under which pair lists and the
// engine's concept caches store what they hold for a concept.
func ConceptKey(c Concept) uint64 {
	words := make([]string, 0, len(c))
	for w := range c {
		words = append(words, w)
	}
	sort.Strings(words)
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range words {
		h.Write([]byte(w))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c[w]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ConceptList derives the match list of a concept within one document
// by merging the concept's inverted lists restricted to that document
// — the paper's footnote-1 construction. When several concept words
// occupy the same position (possible only if they share a stem), the
// highest score wins.
func (ix *Index) ConceptList(doc int, c Concept) match.List {
	best := map[int]float64{}
	for word, score := range c {
		ps := ix.Postings(word)
		// Binary-search the document's slice of the posting list.
		lo := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= doc })
		for _, p := range ps[lo:] {
			if p.Doc != doc {
				break
			}
			if s, ok := best[p.Pos]; !ok || score > s {
				best[p.Pos] = score
			}
		}
	}
	out := make(match.List, 0, len(best))
	for pos, s := range best {
		out = append(out, match.Match{Loc: pos, Score: s})
	}
	out.Sort()
	return out
}

// QueryLists derives one match list per concept for a document,
// producing a ready join instance.
func (ix *Index) QueryLists(doc int, concepts []Concept) match.Lists {
	lists := make(match.Lists, len(concepts))
	for j, c := range concepts {
		lists[j] = ix.ConceptList(doc, c)
	}
	return lists
}

// ConceptFromGraph builds a Concept from a lexical neighborhood: the
// head word's neighbors within maxDist edges, scored by
// score(d) = 1 − perEdge·d.
func ConceptFromGraph(neigh map[string]int, perEdge float64) Concept {
	c := make(Concept, len(neigh))
	for stem, d := range neigh {
		c[stem] = 1 - perEdge*float64(d)
	}
	return c
}
