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
	if len(ps) == 0 {
		return nil
	}
	// Group by document to count runs first.
	nDocs := 1
	for i := 1; i < len(ps); i++ {
		if ps[i].Doc != ps[i-1].Doc {
			nDocs++
		}
	}
	buf := make([]byte, 0, 2+len(ps)*2)
	buf = binary.AppendUvarint(buf, uint64(nDocs))
	prevDoc := 0
	for i := 0; i < len(ps); {
		doc := ps[i].Doc
		j := i
		for j < len(ps) && ps[j].Doc == doc {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(doc-prevDoc))
		prevDoc = doc
		buf = binary.AppendUvarint(buf, uint64(j-i))
		prevPos := 0
		for _, p := range ps[i:j] {
			buf = binary.AppendUvarint(buf, uint64(p.Pos-prevPos))
			prevPos = p.Pos
		}
		i = j
	}
	return buf
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
// decoded from them on first use (stems.go), and optional concept-pair
// lists (pairs.go) registered at build time.
type Compact struct {
	postings map[string][]byte
	// stems has one slot per key of postings, filled by Stem on the
	// stem's first use. The map itself is never written once the index
	// serves, so readers need no lock.
	stems map[string]*atomic.Pointer[StemArrays]
	pairs map[PairKey][]byte // PairKey → EncodePairs buffer
	docs  int
}

// newCompact wraps posting buffers as an index, with an empty arrays
// slot per stem.
func newCompact(docs int, postings map[string][]byte) *Compact {
	c := &Compact{postings: postings, docs: docs, stems: make(map[string]*atomic.Pointer[StemArrays], len(postings))}
	for stem := range postings {
		c.stems[stem] = new(atomic.Pointer[StemArrays])
	}
	return c
}

// setPostings replaces one stem's posting bytes, dropping arrays
// decoded from the old ones. Not safe while the index serves.
func (c *Compact) setPostings(stem string, b []byte) {
	c.postings[stem] = b
	c.stems[stem] = new(atomic.Pointer[StemArrays])
}

// Compact freezes the index into its compressed form.
func (ix *Index) Compact() *Compact {
	postings := make(map[string][]byte, len(ix.postings))
	for stem, ps := range ix.postings {
		postings[stem] = EncodePostings(ps)
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
