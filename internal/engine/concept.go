package engine

import (
	"math"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
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
// (index.AppendConceptList), into a worker's scratch, just before its
// join.

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

// conceptData resolves a concept's stems for this query. Corrupt
// postings — the index reports them, and the ConceptDecode injection
// site panics where they would be decoded — fail the concept: the
// query degrades and the process survives. (Search has already refused
// non-finite weights and oversized concepts.)
func (e *Engine) conceptData(qs *queryState, c index.Concept) (cd *conceptData) {
	cd = &conceptData{top: math.Inf(-1)}
	defer func() {
		if r := recover(); r != nil || cd.failed {
			e.counters.decodeFailures.Add(1)
			qs.degraded.Store(true)
			cd.stems, cd.failed = nil, true
		}
	}()
	stems, err := qs.idx.ConceptStems(c)
	if err != nil {
		cd.failed = true
		return cd
	}
	cd.stems = stems
	for _, s := range stems {
		cd.top = max(cd.top, s.Score)
	}
	return cd
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

// stemPos is one stem's place in a cursor: stem s (arr, weight w) at
// its document i, doc.
type stemPos struct {
	doc, i, s int
	arr       *index.StemArrays
	w         float64
}

func newCursor(cd *conceptData) conceptCursor {
	cu := conceptCursor{cd: cd, pos: make([]stemPos, 0, len(cd.stems)), doc: -1}
	for s := range cd.stems {
		if arr := cd.stems[s].Arrays; arr.Len() > 0 {
			cu.pos = append(cu.pos, stemPos{doc: arr.Doc(0), s: s, arr: arr, w: cd.stems[s].Score})
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

// stemLoc locates a candidate document in one of a concept's stems:
// stem holds it at index i.
type stemLoc struct{ stem, i int32 }

// locs appends to buf where the stems holding the cursor's document
// hold it, and returns how many it appended.
func (cu *conceptCursor) locs(buf *[]stemLoc) int32 {
	n := len(*buf)
	for _, p := range cu.pos {
		if p.doc == cu.doc {
			*buf = append(*buf, stemLoc{int32(p.s), int32(p.i)})
		}
	}
	return int32(len(*buf) - n)
}

// candidates is the conjunctive walk's output, flattened
// document-major for n concepts: candidate i is docs[i]; concept j's
// signature on it is sigs[i*n+j]; its stems' locations are
// locs[start[i]:start[i+1]], concept by concept, nlocs[i*n+j] of them
// for concept j.
type candidates struct {
	docs  []int
	sigs  []join.Sig
	locs  []stemLoc
	nlocs []int32
	start []int32
}

// intersectCursors returns the documents present in every concept by a
// leapfrog walk over concept cursors, with where each concept stands on
// each of them.
func intersectCursors(qs *queryState, cds []*conceptData) (c candidates) {
	n := len(cds)
	for _, cd := range cds {
		if cd.failed {
			return c
		}
	}
	curs := make([]conceptCursor, n)
	// The rarest concept's documents bound the candidates: size the
	// outputs to that, up to a cap a huge concept cannot inflate (past
	// it they grow by append).
	want := math.MaxInt
	for j := range curs {
		curs[j] = newCursor(cds[j])
		total := 0
		for _, s := range cds[j].stems {
			total += s.Arrays.Len()
		}
		want = min(want, total)
	}
	want = min(want, 1<<12)
	c.docs, c.start = make([]int, 0, want), make([]int32, 1, want+1)
	c.sigs, c.nlocs = make([]join.Sig, 0, want*n), make([]int32, 0, want*n)
	c.locs = make([]stemLoc, 0, want*n)
	d, matched, j := 0, 0, 0
	for {
		doc, ok := curs[j].seek(d)
		if !ok {
			return c
		}
		if doc > d {
			d, matched = doc, 1
		} else {
			matched++
		}
		if matched == n {
			c.docs = append(c.docs, d)
			for jj := range curs {
				c.sigs, c.nlocs = append(c.sigs, curs[jj].sig), append(c.nlocs, curs[jj].locs(&c.locs))
			}
			c.start = append(c.start, int32(len(c.locs)))
			// Poll the context on a coarse stride: a cancelled query
			// stops generating candidates nobody will read.
			if len(c.docs)&0x3ff == 0 && qs.ctx.Err() != nil {
				qs.cancelled = true
				return c
			}
			d++
			matched = 0
		}
		if j++; j == n {
			j = 0
		}
	}
}

// fillLists merges a job's match lists on a worker, just before its
// join: slot s takes the concept's list on the document from the
// jb.nlocs[s] stems next in jb.locs, into the worker's scratch[s]
// (valid until the worker's next job; at is scratch too). A
// conjunctive job (mask == 0) has one slot per concept; a disjunctive
// job one per set bit of jb.mask, in ascending concept order.
func fillLists(cds []*conceptData, jb docJob, scratch []match.List, at *[]index.StemAt) {
	s, locs := 0, jb.locs
	for j, cd := range cds {
		if jb.mask != 0 && jb.mask&(1<<uint(j)) == 0 {
			continue
		}
		*at = (*at)[:0]
		run := locs[:jb.nlocs[s]]
		locs = locs[len(run):]
		for _, l := range run {
			st := &cd.stems[l.stem]
			*at = append(*at, index.StemAt{Arrays: st.Arrays, I: int(l.i), Score: st.Score})
		}
		scratch[s] = index.AppendConceptList(scratch[s][:0], *at)
		jb.lists[s] = scratch[s]
		s++
	}
}
