package engine

import (
	"math"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
)

// Per-query concepts: a query concept is the union of its member
// stems. The index keeps, per epoch, what a query reads of a concept
// (index.Compact.ConceptArrays): the table a concept of two or more
// stems is merged into on its first use — the union of the stems'
// documents, each entry holding the concept's signature there, with
// the merged match lists beside them — or the arrays of its one stem.
// A concept cursor gallops over that one array, and on each document
// it stands on it knows, before any position is read, the concept's
// signature there (join.Sig): the largest weight among the stems
// present, which is the exact maximum of the concept's match list on
// the document, and the OR of those stems' location masks, which is
// the list's mask. Both are join.Signature of the list, to the bit, so
// the score bounds and the cache rung (join.Apart) screen a document
// before its list is read. A document that survives them is joined on
// its table's list slice, or on its one stem's positions converted
// into its walker's scratch.

// MaxConceptStems caps the member words of one query concept: a larger
// concept is a malformed query, refused like a K above MaxK on every
// entry point and on the wire. A concept's first use in an epoch
// merges all of its stems into its table, so this is the bound that
// keeps that build finite. The builtin lexicon's largest neighbourhood
// has 24 stems; the cap leaves room for concepts built from data, one
// word per matched location, as the synthetic workloads build them.
const MaxConceptStems = 1 << 12

// conceptData is the per-query state of one concept: what the index
// keeps of it.
type conceptData struct {
	arrays *index.ConceptArrays
	// failed: a stem's postings would not decode. The concept poisons
	// its query (Degraded) and contributes no documents: its arrays are
	// noConcept.
	failed bool
}

// noConcept is a failed concept's arrays: no documents.
var noConcept index.ConceptArrays

// conceptData resolves a concept for this query into cd. Corrupt
// postings — the index reports them, and the ConceptDecode injection
// site panics where a stem would be decoded or a table built — fail
// the concept: the query degrades and the process survives. (Search
// has already refused non-finite weights and oversized concepts.)
func (e *Engine) conceptData(qs *queryState, c index.Concept, cd *conceptData) {
	defer func() {
		if r := recover(); r != nil || cd.failed {
			qs.tally.DecodeFailures++
			qs.degraded.Store(true)
			cd.failed = true
			cd.arrays = &noConcept
		}
	}()
	arrays, err := qs.idx.ConceptArrays(c)
	if err != nil {
		cd.failed = true
		return
	}
	cd.arrays = arrays
}

// conceptCursor walks one concept's documents in ascending order: i is
// its index in the concept's arrays, doc its id (MaxInt once the
// concept is exhausted), and sig the concept's signature there.
type conceptCursor struct {
	cd  *conceptData
	i   int
	doc int
	sig join.Sig
}

// newCursor starts a cursor on cd, before its first document.
func newCursor(cd *conceptData) conceptCursor {
	return conceptCursor{cd: cd, i: -1, doc: -1}
}

// seek positions the cursor at the first document ≥ d and returns it;
// ok is false when the concept is exhausted (or failed). A cursor
// already there stays; otherwise it gallops to d
// (index.ConceptArrays.Seek), so a seek costs logarithmically in the
// documents it passes, and reads the signature off the entry it lands
// on.
func (cu *conceptCursor) seek(d int) (int, bool) {
	if cu.doc >= d {
		return cu.doc, cu.doc != math.MaxInt
	}
	a := cu.cd.arrays
	i := a.Seek(cu.i+1, d)
	if i >= a.Len() {
		cu.i, cu.doc = a.Len(), math.MaxInt
		return math.MaxInt, false
	}
	cu.i = i
	cu.doc, cu.sig.Mask, cu.sig.Max = a.At(i)
	return cu.doc, true
}
