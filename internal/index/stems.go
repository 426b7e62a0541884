package index

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"bestjoin/internal/faultinject"
	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// Plain per-stem arrays: the form a query reads postings in, decoded
// from a stem's §1 bytes on its first use and kept by the Compact. A
// concept is never stored: its match list on a document is the
// query-time merge of its stems' positions there (AppendConceptList),
// the paper's footnote-1 construction.

// StemArrays is one stem's postings as plain arrays. Document i of the
// stem is Doc(i); its positions, ascending (a repeated position is
// kept), are Pos(j) for j in [Start(i), End(i)).
type StemArrays struct {
	docs []stemDoc // ascending; every document has at least one position
	ends []int     // ends[i]: one past document i's last position
	pos  []int
}

// stemDoc is one document of a stem, its id and its location mask side
// by side: a cursor that reads one reads the other too.
type stemDoc struct {
	doc  int
	mask uint64 // locBit of every position: join.Signature's mask of them
}

// locBit is the bit of a location's 8-position bucket in a location
// mask (join.Sig): bucket 0 takes every location below 8, bucket 63
// every location from 504 on.
func locBit(loc int) uint64 { return 1 << min(max(loc>>3, 0), 63) }

// decodeStem decodes a stem's EncodePostings buffer into plain arrays.
// It makes every check DecodePostings makes and yields exactly its
// postings: document ids and positions up to MaxDocID and MaxPosition,
// the runs of a repeated document id joined into one document.
func decodeStem(b []byte) (*StemArrays, error) {
	// The buffer sizes the arrays: at most the header's documents, two
	// bytes or more each, and one position per byte those leave.
	s := &StemArrays{}
	if nDocs, n := binary.Uvarint(b); n > 0 {
		docs := int(min(nDocs, uint64(len(b)/2)))
		s.docs, s.ends = make([]stemDoc, 0, docs), make([]int, 0, docs)
		s.pos = make([]int, 0, max(len(b)-n-2*docs, 0))
	}
	err := walkPostings(b, func(doc, pos int) {
		if k := len(s.docs); k == 0 || s.docs[k-1].doc != doc {
			s.docs = append(s.docs, stemDoc{doc: doc})
			s.ends = append(s.ends, 0)
		}
		s.pos = append(s.pos, pos)
		s.docs[len(s.docs)-1].mask |= locBit(pos)
		s.ends[len(s.ends)-1] = len(s.pos)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Len returns the number of documents.
func (s *StemArrays) Len() int { return len(s.docs) }

// Doc returns document i's id.
func (s *StemArrays) Doc(i int) int { return s.docs[i].doc }

// Mask returns document i's location mask.
func (s *StemArrays) Mask(i int) uint64 { return s.docs[i].mask }

// Start returns the index of document i's first position.
func (s *StemArrays) Start(i int) int {
	if i == 0 {
		return 0
	}
	return s.ends[i-1]
}

// End returns one past the index of document i's last position.
func (s *StemArrays) End(i int) int { return s.ends[i] }

// Pos returns position j.
func (s *StemArrays) Pos(j int) int { return s.pos[j] }

// Seek returns the index of the first document at least doc in
// [lo, Len()), or Len(): an exponential probe from lo, then a binary
// search, so a short move costs a few comparisons.
func (s *StemArrays) Seek(lo, doc int) int {
	n := len(s.docs)
	if lo >= n || s.docs[lo].doc >= doc {
		return lo
	}
	hi := lo + 1 // s.docs[lo] is below doc; the answer is in (lo, hi]
	for step := 1; hi < n && s.docs[hi].doc < doc; step *= 2 {
		lo, hi = hi, hi+step
	}
	for lo, hi = lo+1, min(hi, n); lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if s.docs[m].doc < doc {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Stem returns the plain arrays of one stem (not a word), decoding its
// postings on first use and keeping them; nil for a stem the index
// lacks. Racing first uses decode equal arrays, either kept. Corrupt
// bytes are an error and keep nothing, so every use reports them. The
// decode is the faultinject.ConceptDecode and DecodeLatency site.
func (c *Compact) Stem(stem string) (*StemArrays, error) {
	slot := c.stems[stem]
	if slot == nil {
		return nil, nil
	}
	if s := slot.Load(); s != nil {
		return s, nil
	}
	faultinject.MaybeSleep(faultinject.DecodeLatency)
	faultinject.MaybePanic(faultinject.ConceptDecode)
	s, err := decodeStem(c.postings[stem])
	if err != nil {
		return nil, fmt.Errorf("index: postings of stem %q: %w", stem, err)
	}
	slot.Store(s)
	return s, nil
}

// ConceptStem is one distinct member stem of a concept, with the
// weight its occurrences carry: the highest among the concept's words
// of that stem, as Compact.ConceptList scores a shared position.
type ConceptStem struct {
	Stem   string
	Arrays *StemArrays
	Score  float64
}

// ConceptStems resolves a concept's words to the distinct stems the
// index holds, ascending by stem, each decoded on first use. A word
// whose stem the index lacks contributes nothing. An error means a
// stem's postings are corrupt.
func (c *Compact) ConceptStems(concept Concept) ([]ConceptStem, error) {
	all := make([]ConceptStem, 0, len(concept))
	for word, score := range concept {
		all = append(all, ConceptStem{Stem: text.Stem(word), Score: score})
	}
	slices.SortFunc(all, func(a, b ConceptStem) int { return strings.Compare(a.Stem, b.Stem) })
	out := all[:0] // filled behind the reads
	for _, s := range all {
		if n := len(out); n > 0 && out[n-1].Stem == s.Stem {
			out[n-1].Score = max(out[n-1].Score, s.Score)
			continue
		}
		arr, err := c.Stem(s.Stem)
		if err != nil {
			return nil, err
		}
		if arr != nil {
			out = append(out, ConceptStem{Stem: s.Stem, Arrays: arr, Score: s.Score})
		}
	}
	return out, nil
}

// StemAt is one stem's document I, with the weight its matches carry.
type StemAt struct {
	Arrays *StemArrays
	I      int
	Score  float64
}

// AppendConceptList appends a concept's match list on one document to
// dst: the positions of the member stems at (each at that document),
// in location order, a location held more than once scored with the
// highest weight holding it — Compact.ConceptList, bit for bit.
func AppendConceptList(dst match.List, at []StemAt) match.List {
	begin := len(dst)
	// Merge the stems' runs, keeping them ordered by their heads — an
	// advanced run usually moves a place or two.
	var buf [8][]int
	var obuf [8]int
	runs, order := buf[:0], obuf[:0]
	if len(at) > len(buf) {
		runs, order = make([][]int, 0, len(at)), make([]int, 0, len(at))
	}
	for k, a := range at {
		runs = append(runs, a.Arrays.pos[a.Arrays.Start(a.I):a.Arrays.End(a.I)])
		if len(runs[k]) > 0 {
			order = append(order, k)
			for j := len(order) - 1; j > 0 && runs[order[j-1]][0] > runs[k][0]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	for len(order) > 0 {
		k := order[0]
		loc, score := runs[k][0], at[k].Score
		if n := len(dst); n > begin && dst[n-1].Loc == loc {
			dst[n-1].Score = max(dst[n-1].Score, score)
		} else {
			dst = append(dst, match.Match{Loc: loc, Score: score})
		}
		if runs[k] = runs[k][1:]; len(runs[k]) == 0 {
			order = append(order[:0], order[1:]...)
			continue
		}
		j := 0
		for ; j+1 < len(order) && runs[order[j+1]][0] < runs[k][0]; j++ {
			order[j] = order[j+1]
		}
		order[j] = k
	}
	return dst
}

// conceptDocLists computes a concept's corpus-wide match data: every
// document any member stem occurs in, ascending, with the concept's
// match list there — the merge behind the pair lists and the
// ConceptBlocks view. Corrupt posting bytes panic, as in
// Compact.Postings.
func (c *Compact) conceptDocLists(concept Concept) (docs []int, lists []match.List) {
	stems, err := c.ConceptStems(concept)
	if err != nil {
		panic(fmt.Sprintf("index: corrupt compacted postings: %v", err))
	}
	next := make([]int, len(stems))
	at := make([]StemAt, 0, len(stems))
	var flat match.List
	for {
		doc := -1
		for k, s := range stems {
			if next[k] < s.Arrays.Len() && (doc < 0 || s.Arrays.Doc(next[k]) < doc) {
				doc = s.Arrays.Doc(next[k])
			}
		}
		if doc < 0 {
			break
		}
		at = at[:0]
		for k, s := range stems {
			if next[k] < s.Arrays.Len() && s.Arrays.Doc(next[k]) == doc {
				at = append(at, StemAt{Arrays: s.Arrays, I: next[k], Score: s.Score})
				next[k]++
			}
		}
		begin := len(flat)
		flat = AppendConceptList(flat, at)
		docs = append(docs, doc)
		lists = append(lists, flat[begin:len(flat):len(flat)])
	}
	return docs, lists
}

// BlockSize is the number of documents per block of a pair list
// (pairs.go) and of a ConceptBlocks view.
const BlockSize = 128

// BlockTable is a view of one concept's corpus-wide match data cut
// into BlockSize-document ranges. It holds no bytes and no codec.
//
// Deprecated: the query path reads per-stem arrays (Compact.Stem);
// the view remains for callers written against the former block
// tables.
type BlockTable struct {
	docs  []int
	lists []match.List
}

// NumBlocks returns the number of BlockSize-document ranges.
func (bt *BlockTable) NumBlocks() int { return (len(bt.docs) + BlockSize - 1) / BlockSize }

// DecodeBlock returns range i's document ids and, aligned with them,
// their match lists. It never fails.
func (bt *BlockTable) DecodeBlock(i int) (docs []int, lists []match.List, err error) {
	lo, hi := i*BlockSize, min((i+1)*BlockSize, len(bt.docs))
	return bt.docs[lo:hi], bt.lists[lo:hi], nil
}

// ConceptBlocks returns the block view of a concept's merged match
// data: empty for a concept absent from the corpus, ok false only for a
// non-finite weight. Corrupt posting bytes panic.
//
// Deprecated: see BlockTable.
func (c *Compact) ConceptBlocks(concept Concept) (*BlockTable, bool) {
	if !concept.Finite() {
		return nil, false
	}
	docs, lists := c.conceptDocLists(concept)
	return &BlockTable{docs: docs, lists: lists}, true
}

// AddConceptBlocks does nothing: nothing per concept is stored.
//
// Deprecated: it remains so that callers written against the former
// registry still compile.
func (c *Compact) AddConceptBlocks(Concept) {}
