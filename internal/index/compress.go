package index

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// Posting-list compression: delta-encoded document ids and positions
// packed as unsigned varints, a few bytes per posting. Layout per term: varint(#documents), then per document
// varint(docDelta) varint(#positions) varint(posDelta)... with
// document ids and positions both delta-encoded within their runs.

// EncodePostings packs a (doc, pos)-sorted posting list.
func EncodePostings(ps []Posting) []byte {
	var e postingEncoder
	for _, p := range ps {
		e.add(p.Doc, p.Pos)
	}
	return e.bytes()
}

// postingEncoder writes one posting list in the layout above as its
// postings arrive, the one encoder behind Index.Add, EncodePostings and
// Partition. Consecutive postings of one document form a run; a
// document id or position below its predecessor is encoded as the
// wrapped delta, so bad input reaches the decoder's checks unchanged.
type postingEncoder struct {
	// buf holds the runs without the header, the last one open: its
	// count is a one-byte placeholder at countAt until the run closes.
	buf     []byte
	runs    int
	doc     int // the open run's document
	pos     int // the open run's last position, 0 before its first
	count   int // the open run's positions
	countAt int
}

// add appends one posting.
func (e *postingEncoder) add(doc, pos int) {
	if e.runs == 0 || doc != e.doc {
		e.closeRun()
		e.buf = binary.AppendUvarint(e.buf, uint64(doc-e.doc))
		e.countAt = len(e.buf)
		e.buf = append(e.buf, 0)
		e.runs++
		e.doc, e.pos, e.count = doc, 0, 0
	}
	e.buf = binary.AppendUvarint(e.buf, uint64(pos-e.pos))
	e.pos = pos
	e.count++
}

// closeRun writes the open run's count over its placeholder, moving
// its positions up when the count takes more than one byte.
func (e *postingEncoder) closeRun() {
	if e.runs == 0 {
		return
	}
	var count [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(count[:], uint64(e.count))
	if n > 1 {
		e.buf = append(e.buf, count[1:n]...) // room for the longer count
		copy(e.buf[e.countAt+n:], e.buf[e.countAt+1:len(e.buf)-(n-1)])
	}
	copy(e.buf[e.countAt:], count[:n])
}

// bytes returns the postings added so far, encoded, in a buffer of
// their own (nil for none); the encoder is left as it was.
func (e *postingEncoder) bytes() []byte {
	if e.runs == 0 {
		return nil
	}
	out := make([]byte, 0, len(e.buf)+2*binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(e.runs))
	out = append(out, e.buf[:e.countAt]...)
	out = binary.AppendUvarint(out, uint64(e.count))
	return append(out, e.buf[e.countAt+1:]...)
}

// MaxDocID and MaxPosition bound the document ids and token positions
// DecodePostings accepts. Compressed postings may come from disk or
// other untrusted storage; without these bounds a huge uvarint delta
// wraps the int accumulators negative, yielding out-of-order (even
// negative) postings that silently corrupt every downstream merge.
const (
	MaxDocID    = 1 << 40
	MaxPosition = 1 << 40
)

// DecodePostings unpacks an EncodePostings buffer. Document ids are
// bounded by MaxDocID and positions by MaxPosition; deltas that would
// overflow either bound are rejected as corrupt rather than wrapped.
func DecodePostings(b []byte) ([]Posting, error) {
	var out []Posting
	err := walkPostings(b, func(doc, pos int) { out = append(out, Posting{Doc: doc, Pos: pos}) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walkPostings validates an EncodePostings buffer and hands every
// posting to emit in (doc, pos) order — the one decode loop behind
// DecodePostings, the load-time check and the plain stem arrays
// (stems.go), so all three read the same postings from the same bytes.
// emit may have been called before an error is returned.
func walkPostings(b []byte, emit func(doc, pos int)) error {
	if len(b) == 0 {
		return nil
	}
	nDocs, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("index: corrupt posting header")
	}
	b = b[n:]
	doc := 0
	prevRunEnd := -1 // last position of the previous run of this doc
	for d := uint64(0); d < nDocs; d++ {
		delta, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("index: corrupt doc delta")
		}
		b = b[n:]
		// Check the delta before converting: a uvarint above MaxInt64
		// would wrap int(delta) negative.
		if delta > MaxDocID {
			return fmt.Errorf("index: doc delta %d exceeds %d", delta, uint64(MaxDocID))
		}
		doc += int(delta)
		if doc > MaxDocID {
			return fmt.Errorf("index: doc id %d exceeds %d", doc, int64(MaxDocID))
		}
		if delta != 0 {
			prevRunEnd = -1
		}
		count, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("index: corrupt position count")
		}
		b = b[n:]
		pos := 0
		for k := uint64(0); k < count; k++ {
			pd, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("index: corrupt position delta")
			}
			b = b[n:]
			if pd > MaxPosition {
				return fmt.Errorf("index: position delta %d exceeds %d", pd, uint64(MaxPosition))
			}
			pos += int(pd)
			if pos > MaxPosition {
				return fmt.Errorf("index: position %d exceeds %d", pos, int64(MaxPosition))
			}
			// A repeated run of the same document (doc delta 0) restarts
			// the position accumulator; reject it unless positions keep
			// ascending, so decoded postings are always (doc, pos)-sorted.
			if pos < prevRunEnd {
				return fmt.Errorf("index: positions out of order in doc %d", doc)
			}
			emit(doc, pos)
		}
		pos = max(pos, prevRunEnd)
		prevRunEnd = pos
	}
	if len(b) != 0 {
		return fmt.Errorf("index: %d trailing bytes", len(b))
	}
	return nil
}

// Compact is a read-only compressed index: the same query surface as
// Index over varint-packed posting lists, each stem's plain arrays
// decoded from them on first use (stems.go), each multi-stem concept's
// table merged from those on first use (concepts.go), and optional
// concept-pair lists (pairs.go) registered at build time.
type Compact struct {
	postings map[string][]byte
	// stems has one slot per key of postings, filled by Stem on the
	// stem's first use. The map itself is never written once the index
	// serves, so readers need no lock.
	stems    map[string]*atomic.Pointer[StemArrays]
	decoded  atomic.Int64 // the bytes of the arrays in stems
	concepts *conceptCache
	pairs    map[pairKey]*PairTable
	docs     int
}

// newCompact wraps posting buffers as an index, with an empty arrays
// slot per stem and no concept kept.
func newCompact(docs int, postings map[string][]byte) *Compact {
	c := &Compact{postings: postings, docs: docs, stems: make(map[string]*atomic.Pointer[StemArrays], len(postings)),
		concepts: newConceptCache()}
	for stem := range postings {
		c.stems[stem] = new(atomic.Pointer[StemArrays])
	}
	return c
}

// setPostings replaces one stem's posting bytes, dropping arrays
// decoded from the old ones and every kept concept. Not safe while the
// index serves.
func (c *Compact) setPostings(stem string, b []byte) {
	if s := c.stems[stem]; s != nil && s.Load() != nil {
		c.decoded.Add(-int64(s.Load().Bytes()))
	}
	c.postings[stem] = b
	c.stems[stem] = new(atomic.Pointer[StemArrays])
	budget := c.concepts.budget
	c.concepts = newConceptCache()
	c.concepts.budget = budget
}

// Compact freezes the index into its compressed form: each stem's
// encoded postings, copied behind their run count.
func (ix *Index) Compact() *Compact {
	postings := make(map[string][]byte, len(ix.stems))
	for stem, e := range ix.stems {
		postings[stem] = e.bytes()
	}
	return newCompact(ix.docs, postings)
}

// Docs returns the number of documents.
func (c *Compact) Docs() int { return c.docs }

// Bytes returns the total compressed posting storage in bytes.
func (c *Compact) Bytes() int {
	n := 0
	for _, b := range c.postings {
		n += len(b)
	}
	return n
}

// Postings decodes the posting list of a word (stemmed internally).
func (c *Compact) Postings(word string) []Posting {
	b := c.postings[text.Stem(word)]
	ps, err := DecodePostings(b)
	if err != nil {
		// A Compact is only built from a valid Index, so decode
		// failures indicate memory corruption; fail loudly.
		panic(fmt.Sprintf("index: corrupt compacted postings for %q: %v", word, err))
	}
	return ps
}

// ConceptList derives a concept's match list within one document from
// the compressed postings, as Index.ConceptList does: the reference
// every faster path is held to.
func (c *Compact) ConceptList(doc int, concept Concept) match.List {
	return conceptList(doc, concept, c.Postings)
}

// QueryLists derives one match list per concept for a document.
func (c *Compact) QueryLists(doc int, concepts []Concept) match.Lists {
	return queryLists(doc, concepts, c.ConceptList)
}
