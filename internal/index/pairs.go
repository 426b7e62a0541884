package index

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"sort"

	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// Two-term pair lists: for a registered (conceptA, conceptB, kernel)
// triple, the exact best-join result the kernel computes on every
// document that contains both concepts — the pair score and the
// two-match witness that attains it. No query is served from them:
// they remain because the load harness under bench/ builds them to
// pick its pair2 query class and times their decode. They go with
// ROADMAP item 1.
//
// A pair list exists only on the Compact of the process that built it
// (AddConceptPairs). Marshal never writes one and Partition never
// carries one, so every list this package reads back was packed by
// newPairTable in the same process, and DecodeBlock trusts its bytes.
//
// The list is block-partitioned: ~BlockSize documents per block, each
// fronted by a skip entry (PairInfo: first/last document id, document
// count, payload byte range). The payload, per document (the first
// document's delta is omitted: it IS the block's FirstDoc), is
//
//	varint(docDelta) flag(1)
//	flag 1: float64le(score) varint(loc0) float64le(s0)
//	        varint(loc1) float64le(s1)
//	flag 0: nothing — a tombstone
//
// A tombstone records a document where both concepts occur but the
// kernel produced no scorable result, so the list's document set is
// exactly the two concepts' intersection. The witness is stored in
// canonical order — the lower-ConceptKey concept's match first.
//
// A list is charged its payload plus its skip table as varints:
// varint(#blocks), then per block varint(firstGap) varint(span)
// varint(#docs), 8 bytes (a block's maximum score, which the skip
// entry once carried) and varint(payloadLen), where firstGap is the
// gap from the previous block's last document (the first block's is
// its first document) and span is lastDoc − firstDoc. That is the size
// the pair budget counts, so the same budget registers the same lists.

// pairKey identifies one registered pair list: the two concepts'
// ConceptKeys in ascending order plus the opaque kernel fingerprint
// the list was built under (the engine hashes its kernel spec; this
// package never interprets it — a pair list is only valid for the
// exact scoring function that produced it).
type pairKey struct {
	lo, hi uint64
	spec   uint64
}

// makePairKey builds the canonical key for two concept keys,
// normalizing their order.
func makePairKey(a, b, spec uint64) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{lo: a, hi: b, spec: spec}
}

// PairEntry is one pair-posting record.
type PairEntry struct {
	Doc int
	// OK is false for a tombstone: both concepts occur in Doc but the
	// kernel produced no scorable result there.
	OK    bool
	Score float64
	// W0 and W1 are the witness matchset in canonical order: W0 is the
	// lower-ConceptKey concept's match, W1 the higher's.
	W0, W1 match.Match
}

// PairInfo is one pair skip-table entry.
type PairInfo struct {
	FirstDoc int // first document id in the block
	LastDoc  int // last document id in the block
	NDocs    int // number of records (scored + tombstones)
	Off      int // payload byte offset within the payload area
	Len      int // payload byte length
}

// PairTable is one registered pair list: its skip table and the packed
// payload DecodeBlock unpacks block by block.
type PairTable struct {
	Infos   []PairInfo
	payload []byte
}

// NumBlocks returns the number of blocks in the table.
//
// Deprecated: kept for bench/ only; goes with ROADMAP item 1.
func (pt *PairTable) NumBlocks() int { return len(pt.Infos) }

// newPairTable packs records — strictly ascending document ids, finite
// scores and witness values on every OK record — into blocks of
// blockSize documents (≤ 0 means BlockSize), and returns the table
// with the bytes it is charged. No records pack to a nil table.
func newPairTable(entries []PairEntry, blockSize int) (*PairTable, int) {
	if len(entries) == 0 {
		return nil, 0
	}
	if blockSize <= 0 {
		blockSize = BlockSize
	}
	nBlocks := (len(entries) + blockSize - 1) / blockSize
	pt := &PairTable{Infos: make([]PairInfo, 0, nBlocks)}
	size := uvarintLen(uint64(nBlocks))
	prevLast := 0
	for b := 0; b < len(entries); b += blockSize {
		block := entries[b:min(b+blockSize, len(entries))]
		info := PairInfo{
			FirstDoc: block[0].Doc, LastDoc: block[len(block)-1].Doc,
			NDocs: len(block), Off: len(pt.payload),
		}
		for i, ent := range block {
			if i > 0 {
				pt.payload = binary.AppendUvarint(pt.payload, uint64(ent.Doc-block[i-1].Doc))
			}
			if !ent.OK {
				pt.payload = append(pt.payload, 0)
				continue
			}
			pt.payload = append(pt.payload, 1)
			pt.payload = binary.LittleEndian.AppendUint64(pt.payload, math.Float64bits(ent.Score))
			for _, w := range [2]match.Match{ent.W0, ent.W1} {
				pt.payload = binary.AppendUvarint(pt.payload, uint64(w.Loc))
				pt.payload = binary.LittleEndian.AppendUint64(pt.payload, math.Float64bits(w.Score))
			}
		}
		info.Len = len(pt.payload) - info.Off
		size += uvarintLen(uint64(info.FirstDoc-prevLast)) + uvarintLen(uint64(info.LastDoc-info.FirstDoc)) +
			uvarintLen(uint64(info.NDocs)) + 8 + uvarintLen(uint64(info.Len))
		prevLast = info.LastDoc
		pt.Infos = append(pt.Infos, info)
	}
	// The table is kept for the life of the index: drop the spare
	// capacity append left behind.
	pt.payload = bytes.Clone(pt.payload)
	return pt, size + len(pt.payload)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// DecodeBlock unpacks block i. The table was packed by newPairTable in
// this process, so its bytes are not checked and the error is always
// nil.
//
// Deprecated: kept for bench/ only; goes with ROADMAP item 1.
func (pt *PairTable) DecodeBlock(i int) ([]PairEntry, error) {
	info := pt.Infos[i]
	b := pt.payload[info.Off : info.Off+info.Len]
	float := func() float64 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return f
	}
	witness := func() match.Match {
		loc, n := binary.Uvarint(b)
		b = b[n:]
		return match.Match{Loc: int(loc), Score: float()}
	}
	out := make([]PairEntry, info.NDocs)
	doc := info.FirstDoc
	for d := range out {
		if d > 0 {
			delta, n := binary.Uvarint(b)
			doc, b = doc+int(delta), b[n:]
		}
		ent := &out[d]
		ent.Doc, ent.OK, b = doc, b[0] == 1, b[1:]
		if ent.OK {
			ent.Score = float()
			ent.W0 = witness()
			ent.W1 = witness()
		}
	}
	return out, nil
}

// AddConceptPairs precomputes and registers the pair list for two
// concepts under an opaque kernel fingerprint, running join — the
// exact query-time kernel, wrapped by the caller — over every
// document in the concepts' intersection. Call it at build time,
// before the index starts serving queries: Compact is otherwise
// read-only and concurrent readers do not lock.
//
// The registration is all-or-nothing: ok is false — and nothing is
// stored — when a concept has non-finite weights, the intersection is
// empty, a join yields a ±Inf score or a malformed witness (the codec
// cannot carry those exactly, and a pair list holds the kernel's
// outputs exactly or not at all), or the pair is already registered. bytes reports the size
// the new list is charged, for the selector's budget accounting.
//
// Deprecated: kept for bench/ only; goes with ROADMAP item 1.
func (c *Compact) AddConceptPairs(a, b Concept, spec uint64, join func(match.Lists) (match.Set, float64, bool)) (bytes int, ok bool) {
	if !a.Finite() || !b.Finite() {
		return 0, false
	}
	ka, kb := ConceptKey(a), ConceptKey(b)
	if ka > kb {
		a, b = b, a
		ka, kb = kb, ka
	}
	key := pairKey{lo: ka, hi: kb, spec: spec}
	if _, dup := c.pairs[key]; dup {
		return 0, false
	}
	docsA, listsA := c.conceptDocLists(a)
	docsB, listsB := c.conceptDocLists(b)
	var entries []PairEntry
	lists := make(match.Lists, 2)
	for i, j := 0, 0; i < len(docsA) && j < len(docsB); {
		switch {
		case docsA[i] < docsB[j]:
			i++
		case docsA[i] > docsB[j]:
			j++
		default:
			lists[0], lists[1] = listsA[i], listsB[j]
			set, score, okJoin := join(lists)
			ent := PairEntry{Doc: docsA[i]}
			if okJoin && !math.IsNaN(score) {
				// A ±Inf score or a witness the codec cannot represent
				// exactly aborts the whole pair: a list never holds an
				// approximation of the kernel's output.
				if math.IsInf(score, 0) || len(set) != 2 {
					return 0, false
				}
				w0, w1 := set[0], set[1]
				if w0.Loc < 0 || w0.Loc > MaxPosition || w1.Loc < 0 || w1.Loc > MaxPosition ||
					math.IsNaN(w0.Score) || math.IsInf(w0.Score, 0) ||
					math.IsNaN(w1.Score) || math.IsInf(w1.Score, 0) {
					return 0, false
				}
				ent.OK, ent.Score, ent.W0, ent.W1 = true, score, w0, w1
			}
			entries = append(entries, ent)
			i++
			j++
		}
	}
	pt, size := newPairTable(entries, 0)
	if pt == nil {
		return 0, false
	}
	if c.pairs == nil {
		c.pairs = make(map[pairKey]*PairTable)
	}
	c.pairs[key] = pt
	return size, true
}

// ConceptPairs returns the registered pair table for two concepts
// under a kernel fingerprint, or ok=false when the pair was never
// registered. The concepts may be given in either order.
//
// Deprecated: kept for bench/ only; goes with ROADMAP item 1.
func (c *Compact) ConceptPairs(a, b Concept, spec uint64) (*PairTable, bool) {
	pt, ok := c.pairs[makePairKey(ConceptKey(a), ConceptKey(b), spec)]
	return pt, ok
}

// ConceptPostingBytes returns the total compressed posting bytes
// behind a concept's member words — the cost-model input for the
// pair-selection budget (frequent words have long posting lists, and
// the pairs whose posting products are largest are exactly the
// queries the kernel path handles worst).
//
// Deprecated: kept for bench/ only; goes with ROADMAP item 1.
func (c *Compact) ConceptPostingBytes(concept Concept) int {
	n := 0
	for word := range concept {
		n += len(c.postings[text.Stem(word)])
	}
	return n
}

// HeavyStems returns up to n index stems ordered by descending
// compressed posting length (ties broken by stem), the frequency
// signal the pair-index selector feeds on.
//
// Deprecated: kept for bench/ only; goes with ROADMAP item 1.
func (c *Compact) HeavyStems(n int) []string {
	stems := make([]string, 0, len(c.postings))
	for s := range c.postings {
		stems = append(stems, s)
	}
	sort.Slice(stems, func(i, j int) bool {
		li, lj := len(c.postings[stems[i]]), len(c.postings[stems[j]])
		if li != lj {
			return li > lj
		}
		return stems[i] < stems[j]
	})
	if n < len(stems) {
		stems = stems[:n]
	}
	return stems
}
