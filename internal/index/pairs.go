package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// Auxiliary two-term pair indexes: precomputed best-join postings for
// selected frequent concept pairs, per Veretennikov's additional-
// indexes response-time guarantee. For a registered (conceptA,
// conceptB, kernel) triple the index stores, for every document that
// contains both concepts, the exact best-join result the kernel would
// compute at query time: the pair score and the two-match witness
// that attains it. A two-term conjunctive query whose pair is
// registered is then answered straight off this list — no posting
// decode, no kernel joins.
//
// The list is block-partitioned: ~BlockSize documents per block, each
// fronted by a skip entry (first/last document id, document count,
// payload byte range, maximum pair score), so a serve skips whole
// blocks that cannot beat the top-k floor without decoding them.
//
// Encoded layout (EncodePairs):
//
//	varint(#blocks)
//	per block: varint(firstGap) varint(span) varint(#docs)
//	           float64le(maxScore) varint(payloadLen)
//	concatenated block payloads
//
// firstGap is the first document id for block 0 and the gap from the
// previous block's last document (≥ 1) afterwards; span is
// lastDoc − firstDoc; maxScore is the maximum pair score among the
// block's scored records (−Inf when the block holds only tombstones).
//
// Block payload, per document (the first document's delta is omitted:
// it IS firstDoc):
//
//	varint(docDelta) flag(1)
//	flag 1: float64le(score) varint(loc0) float64le(s0)
//	        varint(loc1) float64le(s1)
//	flag 0: nothing — a tombstone
//
// A tombstone records a document where both concepts occur but the
// kernel produced no scorable result, so the list's document set is
// exactly the two concepts' intersection and a pair-served query
// reports the kernel path's candidate count. The witness is stored in
// canonical order — the lower-ConceptKey concept's match first.
//
// The buffers come from disk, so decoding is bounded: deltas capped by
// MaxDocID/MaxPosition before int conversion can wrap, ids strictly
// ascending, scores finite, counts checked against the bytes that back
// them, and each block's recorded max score equal to the maximum
// present, so hostile bytes cannot understate a block max and cause a
// real answer to be skipped.

// PairKey identifies one registered pair list: the two concepts'
// ConceptKeys in ascending order plus the opaque kernel fingerprint
// the list was built under (the engine hashes its kernel spec; this
// package never interprets it — a pair list is only valid for the
// exact scoring function that produced it).
type PairKey struct {
	Lo, Hi uint64
	Spec   uint64
}

// MakePairKey builds the canonical key for two concept keys,
// normalizing their order.
func MakePairKey(a, b, spec uint64) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey{Lo: a, Hi: b, Spec: spec}
}

// compare orders pair keys by (Lo, Hi, Spec): the order Marshal
// writes and LoadCompact requires.
func (k PairKey) compare(o PairKey) int {
	return cmp.Or(cmp.Compare(k.Lo, o.Lo), cmp.Compare(k.Hi, o.Hi), cmp.Compare(k.Spec, o.Spec))
}

// PairEntry is one decoded pair-posting record.
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

// PairInfo is one decoded pair skip-table entry.
type PairInfo struct {
	FirstDoc int // first document id in the block
	LastDoc  int // last document id in the block
	NDocs    int // number of records (scored + tombstones)
	Off      int // payload byte offset within the payload area
	Len      int // payload byte length
	// MaxScore is the maximum pair score among the block's scored
	// records, −Inf when the block holds only tombstones.
	MaxScore float64
}

// PairTable is a decoded skip table over one pair list. The payload
// area is retained undecoded; DecodeBlock unpacks individual blocks
// on demand.
type PairTable struct {
	Infos   []PairInfo
	payload []byte
}

// NumBlocks returns the number of blocks in the table.
func (pt *PairTable) NumBlocks() int { return len(pt.Infos) }

// NumDocs returns the total number of records across all blocks —
// the size of the two concepts' document intersection.
func (pt *PairTable) NumDocs() int {
	n := 0
	for i := range pt.Infos {
		n += pt.Infos[i].NDocs
	}
	return n
}

// EncodePairs packs pair records — strictly ascending document ids,
// finite scores and witness values on every OK record — into the
// block-partitioned layout. blockSize ≤ 0 means BlockSize. The empty
// input encodes to nil. EncodePairs is a build-time path fed only by
// AddConceptPairs and tests; inputs must satisfy the documented
// invariants.
func EncodePairs(entries []PairEntry, blockSize int) []byte {
	if len(entries) == 0 {
		return nil
	}
	if blockSize <= 0 {
		blockSize = BlockSize
	}
	nBlocks := (len(entries) + blockSize - 1) / blockSize
	buf := binary.AppendUvarint(nil, uint64(nBlocks))

	var payload []byte
	type skip struct {
		first, last, nDocs, plen int
		maxScore                 float64
	}
	skips := make([]skip, 0, nBlocks)
	for b := 0; b < len(entries); b += blockSize {
		e := b + blockSize
		if e > len(entries) {
			e = len(entries)
		}
		start := len(payload)
		maxScore := math.Inf(-1)
		for i := b; i < e; i++ {
			ent := entries[i]
			if i > b {
				payload = binary.AppendUvarint(payload, uint64(ent.Doc-entries[i-1].Doc))
			}
			if !ent.OK {
				payload = append(payload, 0)
				continue
			}
			payload = append(payload, 1)
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(ent.Score))
			payload = binary.AppendUvarint(payload, uint64(ent.W0.Loc))
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(ent.W0.Score))
			payload = binary.AppendUvarint(payload, uint64(ent.W1.Loc))
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(ent.W1.Score))
			if ent.Score > maxScore {
				maxScore = ent.Score
			}
		}
		skips = append(skips, skip{
			first: entries[b].Doc, last: entries[e-1].Doc,
			nDocs: e - b, plen: len(payload) - start, maxScore: maxScore,
		})
	}
	prevLast := 0
	for i, s := range skips {
		gap := s.first
		if i > 0 {
			gap = s.first - prevLast
		}
		buf = binary.AppendUvarint(buf, uint64(gap))
		buf = binary.AppendUvarint(buf, uint64(s.last-s.first))
		buf = binary.AppendUvarint(buf, uint64(s.nDocs))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.maxScore))
		buf = binary.AppendUvarint(buf, uint64(s.plen))
		prevLast = s.last
	}
	return append(buf, payload...)
}

// DecodePairs unpacks the skip table of an EncodePairs buffer,
// retaining the payload area for per-block decoding. Hostile bytes
// yield an error, never a panic or an out-of-range table; the
// per-block payloads are validated by DecodeBlock (Validate runs it
// over every block, which is what the load path does eagerly).
func DecodePairs(b []byte) (*PairTable, error) {
	if len(b) == 0 {
		return nil, nil
	}
	nBlocks, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("index: corrupt pair block count")
	}
	b = b[n:]
	// Each block costs at least 12 skip bytes (three one-byte varints,
	// the 8-byte max score, a length byte) plus a 1-byte minimum
	// payload; reject counts the buffer cannot hold so corrupt input
	// cannot drive huge allocations.
	if nBlocks == 0 || nBlocks > uint64(len(b))/12 {
		return nil, fmt.Errorf("index: pair block count %d exceeds buffer", nBlocks)
	}
	infos := make([]PairInfo, nBlocks)
	var payloadTotal uint64
	prevLast := 0
	for i := range infos {
		gap, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt pair block %d first-doc gap", i)
		}
		b = b[n:]
		if gap > MaxDocID {
			return nil, fmt.Errorf("index: pair block %d first-doc gap %d exceeds %d", i, gap, uint64(MaxDocID))
		}
		if i > 0 && gap == 0 {
			return nil, fmt.Errorf("index: pair block %d overlaps its predecessor", i)
		}
		first := prevLast + int(gap)
		span, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt pair block %d span", i)
		}
		b = b[n:]
		if span > MaxDocID {
			return nil, fmt.Errorf("index: pair block %d span %d exceeds %d", i, span, uint64(MaxDocID))
		}
		last := first + int(span)
		if first > MaxDocID || last > MaxDocID {
			return nil, fmt.Errorf("index: pair block %d document range exceeds %d", i, int64(MaxDocID))
		}
		nDocs, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt pair block %d doc count", i)
		}
		b = b[n:]
		// Strictly ascending ids within [first, last] admit at most
		// span+1 documents.
		if nDocs == 0 || nDocs > span+1 {
			return nil, fmt.Errorf("index: pair block %d doc count %d exceeds its span", i, nDocs)
		}
		if len(b) < 8 {
			return nil, fmt.Errorf("index: truncated pair block %d max score", i)
		}
		maxScore := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		// −Inf is the legitimate "all tombstones" sentinel; NaN would
		// poison floor comparisons and +Inf would defeat the cap.
		if math.IsNaN(maxScore) || math.IsInf(maxScore, 1) {
			return nil, fmt.Errorf("index: pair block %d max score is not finite", i)
		}
		plen, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt pair block %d payload length", i)
		}
		b = b[n:]
		// Every record costs at least one flag byte.
		if plen < nDocs {
			return nil, fmt.Errorf("index: pair block %d payload too short for %d docs", i, nDocs)
		}
		// Accumulate in uint64 and bound against the remaining buffer so
		// hostile lengths cannot wrap the running offset.
		if plen > uint64(len(b)) || payloadTotal > uint64(len(b))-plen {
			return nil, fmt.Errorf("index: pair block %d payload overruns buffer", i)
		}
		infos[i] = PairInfo{
			FirstDoc: first,
			LastDoc:  last,
			NDocs:    int(nDocs),
			Off:      int(payloadTotal),
			Len:      int(plen),
			MaxScore: maxScore,
		}
		payloadTotal += plen
		prevLast = last
	}
	if payloadTotal != uint64(len(b)) {
		return nil, fmt.Errorf("index: %d trailing pair payload bytes", uint64(len(b))-payloadTotal)
	}
	return &PairTable{Infos: infos, payload: b}, nil
}

// DecodeBlock fully unpacks block i. Every invariant is validated,
// including that the skip entry's max score equals the maximum pair
// score actually present — the check that keeps block-max skipping
// sound against hostile bytes.
func (pt *PairTable) DecodeBlock(i int) ([]PairEntry, error) {
	info := pt.Infos[i]
	b := pt.payload[info.Off : info.Off+info.Len]
	out := make([]PairEntry, 0, info.NDocs)
	doc := info.FirstDoc
	maxSeen := math.Inf(-1)
	for d := 0; d < info.NDocs; d++ {
		if d > 0 {
			delta, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("index: corrupt pair block %d doc delta", i)
			}
			b = b[n:]
			if delta == 0 || delta > MaxDocID {
				return nil, fmt.Errorf("index: pair block %d doc ids not strictly ascending", i)
			}
			doc += int(delta)
			if doc > info.LastDoc {
				return nil, fmt.Errorf("index: pair block %d document %d outside its range", i, doc)
			}
		}
		if len(b) == 0 {
			return nil, fmt.Errorf("index: truncated pair block %d record flag", i)
		}
		flag := b[0]
		b = b[1:]
		switch flag {
		case 0:
			out = append(out, PairEntry{Doc: doc})
			continue
		case 1:
		default:
			return nil, fmt.Errorf("index: pair block %d bad record flag %d", i, flag)
		}
		if len(b) < 8 {
			return nil, fmt.Errorf("index: truncated pair block %d score", i)
		}
		score := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return nil, fmt.Errorf("index: pair block %d score for doc %d is not finite", i, doc)
		}
		var w [2]match.Match
		for j := range w {
			loc, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("index: corrupt pair block %d witness location", i)
			}
			b = b[n:]
			if loc > MaxPosition {
				return nil, fmt.Errorf("index: pair block %d witness location %d exceeds %d", i, loc, uint64(MaxPosition))
			}
			if len(b) < 8 {
				return nil, fmt.Errorf("index: truncated pair block %d witness score", i)
			}
			ws := math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
			if math.IsNaN(ws) || math.IsInf(ws, 0) {
				return nil, fmt.Errorf("index: pair block %d witness score is not finite", i)
			}
			w[j] = match.Match{Loc: int(loc), Score: ws}
		}
		if score > maxSeen {
			maxSeen = score
		}
		out = append(out, PairEntry{Doc: doc, OK: true, Score: score, W0: w[0], W1: w[1]})
	}
	if doc != info.LastDoc {
		return nil, fmt.Errorf("index: pair block %d document range disagrees with skip entry", i)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("index: %d trailing bytes in pair block %d", len(b), i)
	}
	if maxSeen != info.MaxScore {
		return nil, fmt.Errorf("index: pair block %d max score %v disagrees with content max %v",
			i, info.MaxScore, maxSeen)
	}
	return out, nil
}

// Validate fully decodes every block — the eager load-time gate, so
// corrupt or adversarial bytes fail at LoadCompact rather than at
// query time.
func (pt *PairTable) Validate() error {
	if pt == nil {
		return nil
	}
	for i := range pt.Infos {
		if _, err := pt.DecodeBlock(i); err != nil {
			return err
		}
	}
	return nil
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
// cannot carry those exactly, and an inexact pair list would change
// answers), or the pair is already registered. bytes reports the
// encoded size actually added, for the selector's budget accounting.
func (c *Compact) AddConceptPairs(a, b Concept, spec uint64, join func(match.Lists) (match.Set, float64, bool)) (bytes int, ok bool) {
	if !a.Finite() || !b.Finite() {
		return 0, false
	}
	ka, kb := ConceptKey(a), ConceptKey(b)
	if ka > kb {
		a, b = b, a
		ka, kb = kb, ka
	}
	key := PairKey{Lo: ka, Hi: kb, Spec: spec}
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
				// exactly aborts the whole pair: serving an approximation
				// would change answers.
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
	buf := EncodePairs(entries, 0)
	if buf == nil {
		return 0, false
	}
	if c.pairs == nil {
		c.pairs = make(map[PairKey][]byte)
	}
	c.pairs[key] = buf
	return len(buf), true
}

// ConceptPairs returns the registered pair table for two concepts
// under a kernel fingerprint, or ok=false when the pair was never
// registered. The concepts may be given in either order. Like
// Compact.Postings, a decode failure indicates memory corruption
// (LoadCompact validates every buffer eagerly) and fails loudly.
func (c *Compact) ConceptPairs(a, b Concept, spec uint64) (*PairTable, bool) {
	buf, ok := c.pairs[MakePairKey(ConceptKey(a), ConceptKey(b), spec)]
	if !ok {
		return nil, false
	}
	pt, err := DecodePairs(buf)
	if err != nil || pt == nil {
		panic(fmt.Sprintf("index: corrupt concept pairs: %v", err))
	}
	return pt, true
}

// ConceptPairsCount returns the number of registered pair lists.
func (c *Compact) ConceptPairsCount() int { return len(c.pairs) }

// PairSpecs returns the distinct kernel fingerprints under which pair
// lists are registered, ascending.
func (c *Compact) PairSpecs() []uint64 {
	specs := make([]uint64, 0, len(c.pairs))
	for k := range c.pairs {
		specs = append(specs, k.Spec)
	}
	slices.Sort(specs)
	return slices.Compact(specs)
}

// ForkPairs returns an index that shares every posting buffer and
// decoded stem with c but owns its pair-list registry (seeded with c's
// lists), so AddConceptPairs on the fork never touches c: pair lists
// can be built beside an index that is serving queries. The shared
// buffers are read-only on both sides.
func (c *Compact) ForkPairs() *Compact {
	fork := *c
	fork.pairs = maps.Clone(c.pairs)
	return &fork
}

// ConceptPostingBytes returns the total compressed posting bytes
// behind a concept's member words — the cost-model input for the
// pair-selection budget (frequent words have long posting lists, and
// the pairs whose posting products are largest are exactly the
// queries the kernel path handles worst).
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
