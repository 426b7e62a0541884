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
	"fmt"
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

// Index is an inverted index over documents added with Add or AddText,
// built straight into the compressed form Compact serves: each stem's
// postings are encoded (EncodePostings' layout) as they arrive.
type Index struct {
	stems map[string]*postingEncoder
	// words maps each distinct token seen to its stem's encoder: a
	// corpus repeats a small vocabulary, and the stemmer is most of what
	// indexing a new token costs.
	words map[string]*postingEncoder
	docs  int
}

// New returns an empty index.
func New() *Index {
	return &Index{stems: make(map[string]*postingEncoder), words: make(map[string]*postingEncoder)}
}

// Add indexes one document's tokens under the given document id.
// Documents must be added in non-decreasing id order, and a document's
// positions in non-decreasing order, for postings to stay sorted.
func (ix *Index) Add(doc int, tokens []text.Token) {
	for _, t := range tokens {
		ix.encoder([]byte(t.Word)).add(doc, t.Pos)
	}
	ix.docs = max(ix.docs, doc+1)
}

// AddText tokenizes (text.Scan) and indexes a raw document, as Add of
// its text.Tokenize tokens would.
func (ix *Index) AddText(doc int, body string) {
	text.Scan(body, func(word []byte, pos int) { ix.encoder(word).add(doc, pos) })
	ix.docs = max(ix.docs, doc+1)
}

// encoder returns the posting encoder of a token's stem. A token seen
// before costs one map lookup and no allocation.
func (ix *Index) encoder(word []byte) *postingEncoder {
	if e, ok := ix.words[string(word)]; ok {
		return e
	}
	w := string(word)
	stem := text.Stem(w)
	e := ix.stems[stem]
	if e == nil {
		e = new(postingEncoder)
		ix.stems[stem] = e
	}
	ix.words[w] = e
	return e
}

// Docs returns the number of documents (max added id + 1).
func (ix *Index) Docs() int { return ix.docs }

// Postings returns the posting list of a word (stemmed internally),
// sorted by (doc, position): a reference accessor, decoding the stem's
// encoded postings on every call. Postings added out of order panic,
// as in Compact.Postings.
func (ix *Index) Postings(word string) []Posting {
	e := ix.stems[text.Stem(word)]
	if e == nil {
		return nil
	}
	ps, err := DecodePostings(e.bytes())
	if err != nil {
		panic(fmt.Sprintf("index: postings for %q do not decode: %v", word, err))
	}
	return ps
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
func (ix *Index) ConceptList(doc int, c Concept) match.List { return conceptList(doc, c, ix.Postings) }

// QueryLists derives one match list per concept for a document,
// producing a ready join instance.
func (ix *Index) QueryLists(doc int, concepts []Concept) match.Lists {
	return queryLists(doc, concepts, ix.ConceptList)
}

// conceptList is ConceptList over the postings of each word.
func conceptList(doc int, c Concept, postings func(word string) []Posting) match.List {
	best := map[int]float64{}
	for word, score := range c {
		ps := postings(word)
		for _, p := range ps[sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= doc }):] {
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

// queryLists is QueryLists over a ConceptList.
func queryLists(doc int, concepts []Concept, list func(int, Concept) match.List) match.Lists {
	lists := make(match.Lists, len(concepts))
	for j, c := range concepts {
		lists[j] = list(doc, c)
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
