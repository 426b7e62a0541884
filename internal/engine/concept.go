package engine

import (
	"math"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
)

// Per-query concepts: a query concept is the union of its member
// stems. The index decodes each stem's postings into plain arrays once,
// on the stem's first use (index.Compact.Stem); the engine keeps
// nothing per concept. Candidate generation walks the stems' document
// arrays — a concept cursor is a k-way union of its stems' — and on
// each document a cursor stands on it knows, before any position is
// read, the concept's signature there (join.Sig): the largest weight
// among the stems present, which is the exact maximum of the concept's
// match list on the document, and the OR of those stems' location
// masks, which is the list's mask. Both are join.Signature of the list
// the merge would build, to the bit, so the score bounds and the cache
// rung (join.Apart) screen a document before its list exists. Only a
// document that survives them has its list merged
// (index.AppendConceptList), straight from the cursor's stem positions
// into its walker's scratch, just before its join.

// MaxConceptStems caps the member words of one query concept: a larger
// concept is a malformed query, refused like a K above MaxK on every
// entry point and on the wire. A concept cursor is as wide as its
// stems, and each of its steps visits every stem, so this is the bound
// that keeps it finite. The builtin lexicon's largest neighbourhood
// has 24 stems; the cap leaves room for concepts built from data, one
// word per matched location, as the synthetic workloads build them.
const MaxConceptStems = 1 << 12

// conceptData is the per-query state of one concept: its distinct
// member stems with their weights, and their largest weight.
type conceptData struct {
	stems []index.ConceptStem
	top   float64 // the largest weight of stems; -Inf without stems
	// failed: a stem's postings would not decode. The concept poisons
	// its query (Degraded) and contributes no documents.
	failed bool
}

// conceptData resolves a concept's stems for this query into cd.
// Corrupt postings — the index reports them, and the ConceptDecode
// injection site panics where they would be decoded — fail the concept:
// the query degrades and the process survives. (Search has already
// refused non-finite weights and oversized concepts.)
func (e *Engine) conceptData(qs *queryState, c index.Concept, cd *conceptData) {
	cd.top = math.Inf(-1)
	defer func() {
		if r := recover(); r != nil || cd.failed {
			qs.tally.DecodeFailures++
			qs.degraded.Store(true)
			cd.stems, cd.failed = nil, true
		}
	}()
	stems, err := qs.idx.ConceptStems(c)
	if err != nil {
		cd.failed = true
		return
	}
	cd.stems = stems
	for _, s := range stems {
		cd.top = max(cd.top, s.Score)
	}
}

// conceptCursor walks one concept's documents in ascending order: the
// union of its stems' document arrays. pos holds, for each stem with
// documents left, its first document the cursor has not passed; doc is
// the least of them (MaxInt once the concept is exhausted), and sig the
// concept's signature there: the union of the signatures of the stems
// holding it. A concept has a few stems — the builtin lexicon's
// expansions at most 24, six on the bench corpus — and a scan over them
// measured no slower than keeping them in a heap.
type conceptCursor struct {
	cd  *conceptData
	pos []stemPos
	doc int
	sig join.Sig
}

// stemPos is one stem's place in a cursor: the stem's arrays arr, at
// its document i, doc, and its weight w.
type stemPos struct {
	doc, i int
	arr    *index.StemArrays
	w      float64
}

// newCursor starts a cursor on cd with buf, which has room for a
// position per stem, as its positions.
func newCursor(cd *conceptData, buf []stemPos) conceptCursor {
	cu := conceptCursor{cd: cd, pos: buf[:0:len(cd.stems)], doc: -1}
	for s := range cd.stems {
		if arr := cd.stems[s].Arrays; arr.Len() > 0 {
			cu.pos = append(cu.pos, stemPos{doc: arr.Doc(0), arr: arr, w: cd.stems[s].Score})
		}
	}
	return cu
}

// seek positions the cursor at the first document ≥ d and returns it;
// ok is false when the concept is exhausted (or failed). A cursor
// already there stays; otherwise each stem behind d gallops to it
// (StemArrays.Seek), so a seek costs logarithmically in the documents
// it passes.
func (cu *conceptCursor) seek(d int) (int, bool) {
	if cu.doc >= d {
		return cu.doc, cu.doc != math.MaxInt
	}
	doc, sig := math.MaxInt, join.Sig{}
	for k := 0; k < len(cu.pos); {
		p := &cu.pos[k]
		if p.doc < d {
			arr := p.arr
			if p.i++; p.i < arr.Len() && arr.Doc(p.i) < d {
				p.i = arr.Seek(p.i, d)
			}
			if p.i == arr.Len() {
				cu.pos[k] = cu.pos[len(cu.pos)-1]
				cu.pos = cu.pos[:len(cu.pos)-1]
				continue
			}
			p.doc = arr.Doc(p.i)
		}
		switch {
		case p.doc < doc:
			doc, sig = p.doc, join.Sig{Mask: p.arr.Mask(p.i), Max: p.w}
		case p.doc == doc:
			sig.Mask |= p.arr.Mask(p.i)
			if p.w > sig.Max {
				sig.Max = p.w
			}
		}
		k++
	}
	cu.doc, cu.sig = doc, sig
	return doc, doc != math.MaxInt
}
