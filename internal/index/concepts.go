package index

import (
	"fmt"
	"hash/maphash"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"bestjoin/internal/faultinject"
	"bestjoin/internal/match"
)

// Concept tables: the paper's footnote-1 merge of a concept's member
// stems, done once per index epoch instead of on every cursor step. A
// concept of two or more stems is merged on its first use into a
// ConceptTable — the union of the stems' documents, each with the
// concept's signature there and its merged match list — and the
// Compact keeps it, within a byte budget, beside the stem arrays. A
// concept of one stem reads that stem's arrays directly.

// ConceptBudget bounds the bytes of the concept tables one Compact
// keeps (their slices' capacities, plus a small charge per kept
// concept). Past it an insert evicts by CLOCK (conceptCache.keep); a
// table larger than the whole budget is built for its query and not
// kept.
const ConceptBudget = 64 << 20

// ConceptTable is one concept's corpus-wide match data: the union of
// its stems' documents, ascending, each beside the concept's signature
// there — the OR of the stems' location masks and the largest weight
// present — and the end of its run in the merged match lists. A table
// is shared by every query of its epoch and never written once built.
type ConceptTable struct {
	docs []conceptDoc
	list match.List // the documents' match lists, back to back
}

// conceptDoc is one document of a concept table: what a cursor step
// reads, in one entry.
type conceptDoc struct {
	doc  int
	mask uint64  // the OR of the present stems' location masks
	max  float64 // the largest weight among the present stems
	end  int     // one past the document's last match in list
}

// Len returns the number of documents.
func (t *ConceptTable) Len() int { return len(t.docs) }

// At returns document i's id and the concept's signature there: its
// list's location mask and its exact largest score.
func (t *ConceptTable) At(i int) (doc int, mask uint64, max float64) {
	e := &t.docs[i]
	return e.doc, e.mask, e.max
}

// List returns document i's match list — Compact.ConceptList of the
// concept there, bit for bit — as a capacity-capped slice of the
// table: an append to it copies, and nothing may write into it.
func (t *ConceptTable) List(i int) match.List {
	a := 0
	if i > 0 {
		a = t.docs[i-1].end
	}
	b := t.docs[i].end
	return t.list[a:b:b]
}

// Seek returns the index of the first document at least doc in
// [lo, Len()), or Len(): StemArrays.Seek's gallop over the table's
// entries, written out for their type because a cursor step runs it.
func (t *ConceptTable) Seek(lo, doc int) int {
	n := len(t.docs)
	if lo >= n || t.docs[lo].doc >= doc {
		return lo
	}
	hi := lo + 1 // t.docs[lo] is below doc; the answer is in (lo, hi]
	for step := 1; hi < n && t.docs[hi].doc < doc; step *= 2 {
		lo, hi = hi, hi+step
	}
	for lo, hi = lo+1, min(hi, n); lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if t.docs[m].doc < doc {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Bytes returns the table's size from its slices' capacities.
func (t *ConceptTable) Bytes() int {
	return cap(t.docs)*int(unsafe.Sizeof(conceptDoc{})) + cap(t.list)*int(unsafe.Sizeof(match.Match{}))
}

// buildConceptTable merges a concept's stems into its table: a k-way
// merge of their document arrays on a heap (a document costs the
// stems present, not every stem), each document's position runs merged
// by appendConceptList. The build is a faultinject.ConceptDecode site.
func buildConceptTable(stems []ConceptStem) *ConceptTable {
	faultinject.MaybePanic(faultinject.ConceptDecode)
	docs, matches := 0, 0
	for _, s := range stems {
		docs, matches = docs+s.Arrays.Len(), matches+len(s.Arrays.pos)
	}
	t := &ConceptTable{docs: make([]conceptDoc, 0, docs), list: make(match.List, 0, matches)}
	next := make([]int, len(stems))
	h := stemHeap{stems: stems, next: next, ks: make([]int, 0, len(stems))}
	for k, s := range stems {
		if s.Arrays.Len() > 0 {
			h.ks = append(h.ks, k)
		}
	}
	for i := len(h.ks)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var at []stemAt
	for len(h.ks) > 0 {
		e := conceptDoc{doc: h.doc(0)}
		at = at[:0]
		for first := true; len(h.ks) > 0 && h.doc(0) == e.doc; first = false {
			k := h.ks[0]
			s := stems[k]
			e.mask |= s.Arrays.Mask(next[k])
			if first || s.Score > e.max {
				e.max = s.Score
			}
			at = append(at, stemAt{Arrays: s.Arrays, I: next[k], Score: s.Score})
			if next[k]++; next[k] == s.Arrays.Len() {
				h.ks[0] = h.ks[len(h.ks)-1]
				h.ks = h.ks[:len(h.ks)-1]
			}
			h.down(0)
		}
		t.list = appendConceptList(t.list, at)
		e.end = len(t.list)
		t.docs = append(t.docs, e)
	}
	// The stems' documents and positions overcount a union whose stems
	// co-occur: keep the table at its size.
	if cap(t.docs) > len(t.docs)+len(t.docs)/8 {
		t.docs = slices.Clone(t.docs)
	}
	if cap(t.list) > len(t.list)+len(t.list)/8 {
		t.list = slices.Clone(t.list)
	}
	return t
}

// stemHeap is buildConceptTable's heap: the stems with documents left,
// a min-heap on their next document.
type stemHeap struct {
	stems []ConceptStem
	next  []int
	ks    []int
}

// doc returns the next document of the stem at heap slot j.
func (h *stemHeap) doc(j int) int { k := h.ks[j]; return h.stems[k].Arrays.Doc(h.next[k]) }

// down restores the heap below slot j.
func (h *stemHeap) down(j int) {
	for {
		c := 2*j + 1
		if c >= len(h.ks) {
			return
		}
		if c+1 < len(h.ks) && h.doc(c+1) < h.doc(c) {
			c++
		}
		if h.doc(j) <= h.doc(c) {
			return
		}
		h.ks[j], h.ks[c] = h.ks[c], h.ks[j]
		j = c
	}
}

// ConceptArrays is a concept as a query reads it: the table of a
// concept of two or more stems, or the arrays of its one stem at the
// stem's weight (no stem: no documents). Document i is At(i); its
// match list is List(i, …). The zero ConceptArrays has no documents.
type ConceptArrays struct {
	table *ConceptTable // two or more stems
	stem  StemArrays    // otherwise: the one stem's arrays, or none
	score float64       // the one stem's weight
	top   float64       // the largest weight of any stem; -Inf for none
}

// newConceptArrays resolves a concept's distinct stems into the form a
// query reads, building the table of two or more.
func newConceptArrays(stems []ConceptStem) *ConceptArrays {
	a := &ConceptArrays{top: math.Inf(-1)}
	for _, s := range stems {
		a.top = max(a.top, s.Score)
	}
	switch len(stems) {
	case 0:
	case 1:
		a.stem, a.score = *stems[0].Arrays, stems[0].Score
	default:
		a.table = buildConceptTable(stems)
	}
	return a
}

// Top returns the largest weight among the concept's stems, -Inf for a
// concept the index holds no stem of: the concept's largest score on
// any document.
func (a *ConceptArrays) Top() float64 { return a.top }

// Table returns the concept's table, nil for a concept of fewer than
// two stems.
func (a *ConceptArrays) Table() *ConceptTable { return a.table }

// Len returns the number of documents.
func (a *ConceptArrays) Len() int {
	if a.table != nil {
		return len(a.table.docs)
	}
	return len(a.stem.docs)
}

// Seek returns the index of the first document at least doc in
// [lo, Len()), or Len().
func (a *ConceptArrays) Seek(lo, doc int) int {
	if a.table != nil {
		return a.table.Seek(lo, doc)
	}
	return a.stem.Seek(lo, doc)
}

// At returns document i's id and the concept's signature there.
func (a *ConceptArrays) At(i int) (doc int, mask uint64, max float64) {
	if t := a.table; t != nil {
		e := &t.docs[i]
		return e.doc, e.mask, e.max
	}
	d := &a.stem.docs[i]
	return d.doc, d.mask, a.score
}

// List returns document i's match list: a table's capacity-capped
// slice, never to be written, or one stem's positions at its weight,
// converted into *scratch (which keeps the storage). The table is
// never stored into *scratch, so reusing scratch cannot write it.
func (a *ConceptArrays) List(i int, scratch *match.List) match.List {
	if a.table != nil {
		return a.table.List(i)
	}
	*scratch = a.stem.appendList((*scratch)[:0], i, a.score)
	return *scratch
}

// ConceptArrays returns a concept's arrays, resolving and merging its
// stems on first use and keeping the result (within ConceptBudget) for
// later uses: a kept concept costs a hash of its words and weights and
// no allocation. An error means a stem's postings are corrupt; nothing
// is kept. Racing first uses build equal arrays, one kept.
func (c *Compact) ConceptArrays(concept Concept) (*ConceptArrays, error) {
	key := conceptHash(concept)
	if a := c.concepts.lookup(key, concept); a != nil {
		return a, nil
	}
	stems, err := c.ConceptStems(concept)
	if err != nil {
		return nil, err
	}
	return c.concepts.keep(key, concept, newConceptArrays(stems)), nil
}

// fullTable returns a concept's table, built for it alone when the
// concept has one stem (such a table is not kept). Corrupt posting
// bytes panic, as in Compact.Postings.
func (c *Compact) fullTable(concept Concept) *ConceptTable {
	a, err := c.ConceptArrays(concept)
	if err != nil {
		panic(fmt.Sprintf("index: corrupt compacted postings: %v", err))
	}
	if a.table != nil {
		return a.table
	}
	var stems []ConceptStem
	if a.stem.Len() > 0 {
		stems = []ConceptStem{{Arrays: &a.stem, Score: a.score}}
	}
	return buildConceptTable(stems)
}

// ResidentBytes returns the bytes the index holds decoded: every
// decoded stem's arrays and every kept concept table, from their
// slices' capacities.
func (c *Compact) ResidentBytes() int64 {
	return c.decoded.Load() + c.concepts.size.Load()
}

// conceptSeed keys conceptHash.
var conceptSeed = maphash.MakeSeed()

// conceptHash hashes a concept's words and weights, independent of map
// iteration order and without stemming or allocating: a sum of mixed
// per-word hashes.
func conceptHash(concept Concept) uint64 {
	var h uint64
	for w, s := range concept {
		x := maphash.String(conceptSeed, w) ^ math.Float64bits(s)
		x ^= x >> 30 // splitmix64's finalizer
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		h += x ^ x>>31
	}
	return h
}

// conceptEntry is one kept concept: its words and weights, which a
// lookup compares (a hash collision is a miss), its arrays, the bytes
// it is charged, and its CLOCK reference mark.
type conceptEntry struct {
	key    uint64
	words  Concept
	arrays *ConceptArrays
	bytes  int64
	ref    atomic.Bool
}

// entryBytes charges a kept concept its table plus its words.
func entryBytes(concept Concept, a *ConceptArrays) int64 {
	n := int64(unsafe.Sizeof(conceptEntry{}) + unsafe.Sizeof(ConceptArrays{}))
	for w := range concept {
		n += int64(len(w)) + 24 // the word and its map slot, roughly
	}
	if a.table != nil {
		n += int64(a.table.Bytes())
	}
	return n
}

// conceptCache is a Compact's kept concepts, bounded by budget bytes.
// Eviction is CLOCK (second chance): a hit marks its entry; an insert
// that would pass the budget sweeps the ring from its hand, unmarking
// marked entries and evicting unmarked ones until the new one fits.
// Evicted arrays stay valid for the queries holding them.
type conceptCache struct {
	mu     sync.RWMutex
	m      map[uint64]*conceptEntry
	ring   []*conceptEntry
	hand   int
	size   atomic.Int64 // the charged bytes of the entries in m
	budget int64
}

func newConceptCache() *conceptCache {
	return &conceptCache{m: make(map[uint64]*conceptEntry), budget: ConceptBudget}
}

// lookup returns the kept arrays of concept, nil when it is not kept.
func (cc *conceptCache) lookup(key uint64, concept Concept) *ConceptArrays {
	cc.mu.RLock()
	e := cc.m[key]
	cc.mu.RUnlock()
	if e == nil || !sameConcept(e.words, concept) {
		return nil
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e.arrays
}

// sameConcept reports whether two concepts have the same words at
// bitwise-equal weights.
func sameConcept(a, b Concept) bool {
	if len(a) != len(b) {
		return false
	}
	for w, s := range b {
		if t, ok := a[w]; !ok || math.Float64bits(t) != math.Float64bits(s) {
			return false
		}
	}
	return true
}

// keep keeps a concept's freshly built arrays and returns the arrays
// its queries read: those of a racing build already kept, or a, kept
// when they fit the budget.
func (cc *conceptCache) keep(key uint64, concept Concept, a *ConceptArrays) *ConceptArrays {
	bytes := entryBytes(concept, a)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if bytes > cc.budget {
		return a
	}
	if e := cc.m[key]; e != nil {
		if sameConcept(e.words, concept) {
			return e.arrays
		}
		return a // a hash collision: the first concept keeps the slot
	}
	for cc.size.Load()+bytes > cc.budget {
		if cc.hand >= len(cc.ring) {
			cc.hand = 0
		}
		e := cc.ring[cc.hand]
		if e.ref.Swap(false) {
			cc.hand++
			continue
		}
		delete(cc.m, e.key)
		cc.size.Add(-e.bytes)
		last := len(cc.ring) - 1
		cc.ring[cc.hand], cc.ring[last] = cc.ring[last], nil
		cc.ring = cc.ring[:last]
	}
	e := &conceptEntry{key: key, words: maps.Clone(concept), arrays: a, bytes: bytes}
	cc.m[key] = e
	cc.ring = append(cc.ring, e)
	cc.size.Add(bytes)
	return a
}
