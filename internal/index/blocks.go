package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"bestjoin/internal/match"
)

// Block-partitioned concept postings: the skip layer that lets the
// engine prune *below* decode. A concept's corpus-wide match data
// (the best-member-word-score-wins merge of conceptDocLists) is cut
// into blocks of ~BlockSize documents. Each block carries a skip-table
// entry — first/last document id, payload byte range, and the block's
// maximum match score — so a query can (a) gallop over whole blocks
// during candidate generation without decoding them and (b) skip
// decoding any block whose block-max score upper bound cannot beat
// the current top-k floor. That is the classic block-max index layout
// behind threshold-algorithm early termination (Fagin et al.) and
// response-time-guaranteed proximity search (Veretennikov).
//
// Encoded layout (EncodeBlocks):
//
//	varint(#palette) float64le × #palette      // distinct scores, ascending
//	varint(#blocks)
//	per block: varint(firstGap) varint(span) varint(payloadLen) varint(maxIdx)
//	concatenated block payloads
//
// firstGap is the first document id for block 0 and the gap from the
// previous block's last document (≥ 1, blocks are disjoint and
// ascending) afterwards; span is lastDoc − firstDoc; maxIdx indexes
// the palette entry equal to the block's maximum match score.
//
// Block payload:
//
//	varint(#docs)
//	directory: per document varint(docDelta) varint(#matches)
//	           (the first document's delta is omitted: it IS firstDoc)
//	match area: per match varint(posDelta) varint(scoreIdx)
//	           (positions restart per document; first delta is absolute)
//
// The directory comes first so candidate generation can decode just
// the document ids of a block — a few varints — while the match area
// (the expensive part) stays untouched until the block provably
// matters. Scores live in the palette: a concept has only a handful
// of distinct member-word weights, so per-match score storage is one
// small varint instead of eight float bytes.
//
// Like every other decode path in this package the buffers may come
// from disk or other untrusted storage, so decoding is bounded the
// PR 1 way: deltas are capped by MaxDocID/MaxPosition before int
// conversion can wrap, ids and positions must be strictly ascending,
// palette scores must be finite and strictly ascending, counts are
// checked against the bytes that must back them, and — soundness
// critical for pruning — each block's recorded max index must equal
// the maximum score index actually present in the block, so hostile
// bytes cannot understate a block max and cause a real answer to be
// skipped.

// BlockSize is the target number of documents per block. 128 keeps
// a block's decoded form around a few KiB on realistic corpora —
// large enough to amortize per-block bookkeeping, small enough that
// block-max bounds stay selective.
const BlockSize = 128

// BlockInfo is one decoded skip-table entry.
type BlockInfo struct {
	FirstDoc int // first document id in the block
	LastDoc  int // last document id in the block
	Off      int // payload byte offset within the payload area
	Len      int // payload byte length
	MaxIdx   int // palette index of the block's maximum match score
	// MaxScore is the block's maximum match score (Palette[MaxIdx]),
	// denormalized at decode time for the pruning hot path.
	MaxScore float64
}

// BlockTable is a decoded skip table over one concept's
// block-partitioned postings. The payload area is retained
// undecoded; DecodeDocs and DecodeBlock unpack individual blocks on
// demand.
type BlockTable struct {
	Palette []float64 // distinct match scores, strictly ascending
	Infos   []BlockInfo
	payload []byte
	// batch marks a table whose payloads use the group-varint batched
	// layout (batchdecode.go); the decode entry points dispatch on it,
	// so callers never care which codec backs a table.
	batch bool
}

// NumBlocks returns the number of blocks in the table.
func (bt *BlockTable) NumBlocks() int { return len(bt.Infos) }

// FindBlock returns the index of the block whose document range
// contains doc, or -1 when no block covers it.
func (bt *BlockTable) FindBlock(doc int) int {
	i := sort.Search(len(bt.Infos), func(i int) bool { return bt.Infos[i].LastDoc >= doc })
	if i == len(bt.Infos) || bt.Infos[i].FirstDoc > doc {
		return -1
	}
	return i
}

// EncodeBlocks packs a concept's corpus-wide match data — strictly
// ascending document ids with one non-empty position-sorted match
// list each — into the block-partitioned layout. blockSize ≤ 0 means
// BlockSize. The empty input encodes to nil. Inputs must satisfy the
// documented invariants (ascending docs, ascending positions, finite
// scores); EncodeBlocks is a build-time path fed only by
// BuildConceptBlocks and tests.
func EncodeBlocks(docs []int, lists []match.List, blockSize int) []byte {
	if len(docs) == 0 {
		return nil
	}
	if blockSize <= 0 {
		blockSize = BlockSize
	}
	palette, scoreIdx := buildPalette(lists)

	nBlocks := (len(docs) + blockSize - 1) / blockSize
	buf := binary.AppendUvarint(nil, uint64(len(palette)))
	for _, s := range palette {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
	}
	buf = binary.AppendUvarint(buf, uint64(nBlocks))

	var payload []byte
	type skip struct {
		first, last, plen, maxIdx int
	}
	skips := make([]skip, 0, nBlocks)
	for b := 0; b < len(docs); b += blockSize {
		e := b + blockSize
		if e > len(docs) {
			e = len(docs)
		}
		start := len(payload)
		payload = binary.AppendUvarint(payload, uint64(e-b))
		// Directory: per-document delta (first omitted) and match count.
		for i := b; i < e; i++ {
			if i > b {
				payload = binary.AppendUvarint(payload, uint64(docs[i]-docs[i-1]))
			}
			payload = binary.AppendUvarint(payload, uint64(len(lists[i])))
		}
		// Match area, tracking the block max.
		maxIdx := 0
		for i := b; i < e; i++ {
			prev := 0
			for j, m := range lists[i] {
				if j == 0 {
					payload = binary.AppendUvarint(payload, uint64(m.Loc))
				} else {
					payload = binary.AppendUvarint(payload, uint64(m.Loc-prev))
				}
				prev = m.Loc
				idx := scoreIdx[m.Score]
				if idx > maxIdx {
					maxIdx = idx
				}
				payload = binary.AppendUvarint(payload, uint64(idx))
			}
		}
		skips = append(skips, skip{first: docs[b], last: docs[e-1], plen: len(payload) - start, maxIdx: maxIdx})
	}
	prevLast := 0
	for i, s := range skips {
		gap := s.first
		if i > 0 {
			gap = s.first - prevLast
		}
		buf = binary.AppendUvarint(buf, uint64(gap))
		buf = binary.AppendUvarint(buf, uint64(s.last-s.first))
		buf = binary.AppendUvarint(buf, uint64(s.plen))
		buf = binary.AppendUvarint(buf, uint64(s.maxIdx))
		prevLast = s.last
	}
	return append(buf, payload...)
}

// DecodeBlocks unpacks the palette and skip table of an EncodeBlocks
// buffer, retaining the payload area for per-block decoding. Hostile
// bytes yield an error, never a panic or an out-of-range table; the
// per-block payloads are validated by DecodeBlock (Validate runs it
// over every block, which is what the load path does eagerly).
func DecodeBlocks(b []byte) (*BlockTable, error) {
	if len(b) == 0 {
		return nil, nil
	}
	nPal, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("index: corrupt block palette header")
	}
	b = b[n:]
	if nPal == 0 || nPal > uint64(len(b))/8 {
		return nil, fmt.Errorf("index: block palette count %d exceeds buffer", nPal)
	}
	palette := make([]float64, nPal)
	for i := range palette {
		s := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("index: block palette score %d is not finite", i)
		}
		if i > 0 && s <= palette[i-1] {
			return nil, fmt.Errorf("index: block palette not strictly ascending at %d", i)
		}
		palette[i] = s
	}
	nBlocks, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("index: corrupt block count")
	}
	b = b[n:]
	// Each block costs at least 4 skip bytes plus a 4-byte minimum
	// payload; reject counts the buffer cannot hold so corrupt input
	// cannot drive huge allocations.
	if nBlocks == 0 || nBlocks > uint64(len(b))/4 {
		return nil, fmt.Errorf("index: block count %d exceeds buffer", nBlocks)
	}
	infos := make([]BlockInfo, nBlocks)
	var payloadTotal uint64
	prevLast := 0
	for i := range infos {
		gap, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt block %d first-doc gap", i)
		}
		b = b[n:]
		if gap > MaxDocID {
			return nil, fmt.Errorf("index: block %d first-doc gap %d exceeds %d", i, gap, uint64(MaxDocID))
		}
		if i > 0 && gap == 0 {
			return nil, fmt.Errorf("index: block %d overlaps its predecessor", i)
		}
		first := prevLast + int(gap)
		span, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt block %d span", i)
		}
		b = b[n:]
		if span > MaxDocID {
			return nil, fmt.Errorf("index: block %d span %d exceeds %d", i, span, uint64(MaxDocID))
		}
		last := first + int(span)
		if first > MaxDocID || last > MaxDocID {
			return nil, fmt.Errorf("index: block %d document range exceeds %d", i, int64(MaxDocID))
		}
		plen, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt block %d payload length", i)
		}
		b = b[n:]
		maxIdx, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt block %d max index", i)
		}
		b = b[n:]
		if maxIdx >= nPal {
			return nil, fmt.Errorf("index: block %d max index %d out of palette range", i, maxIdx)
		}
		// Accumulate in uint64 and bound against the remaining buffer so
		// hostile lengths cannot wrap the running offset.
		if plen == 0 || plen > uint64(len(b)) || payloadTotal > uint64(len(b))-plen {
			return nil, fmt.Errorf("index: block %d payload overruns buffer", i)
		}
		infos[i] = BlockInfo{
			FirstDoc: first,
			LastDoc:  last,
			Off:      int(payloadTotal),
			Len:      int(plen),
			MaxIdx:   int(maxIdx),
			MaxScore: palette[maxIdx],
		}
		payloadTotal += plen
		prevLast = last
	}
	if payloadTotal != uint64(len(b)) {
		return nil, fmt.Errorf("index: %d trailing block payload bytes", uint64(len(b))-payloadTotal)
	}
	return &BlockTable{Palette: palette, Infos: infos, payload: b}, nil
}

// DecodeDocs unpacks only the directory of block i: the document ids
// it contains, without touching the match area. This is the
// candidate-generation path — a handful of varints per block instead
// of a full posting decode.
func (bt *BlockTable) DecodeDocs(i int) ([]int, error) {
	docs, _, _, err := bt.decodeDir(i)
	return docs, err
}

// decodeDir parses block i's directory, returning the document ids,
// per-document match counts, and the unconsumed match area.
func (bt *BlockTable) decodeDir(i int) (docs []int, nMatch []int, matchArea []byte, err error) {
	if bt.batch {
		return bt.decodeDirBatch(i)
	}
	info := bt.Infos[i]
	b := bt.payload[info.Off : info.Off+info.Len]
	nDocs, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, nil, fmt.Errorf("index: corrupt block %d doc count", i)
	}
	b = b[n:]
	// Each document costs at least 2 directory bytes beyond the first
	// (delta + count) plus 2 match bytes; a loose per-doc floor of one
	// byte bounds the allocation.
	if nDocs == 0 || nDocs > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("index: block %d doc count %d exceeds payload", i, nDocs)
	}
	docs = make([]int, nDocs)
	nMatch = make([]int, nDocs)
	doc := info.FirstDoc
	for d := uint64(0); d < nDocs; d++ {
		if d > 0 {
			delta, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, nil, nil, fmt.Errorf("index: corrupt block %d doc delta", i)
			}
			b = b[n:]
			if delta == 0 || delta > MaxDocID {
				return nil, nil, nil, fmt.Errorf("index: block %d doc ids not strictly ascending", i)
			}
			doc += int(delta)
		}
		if doc > info.LastDoc {
			return nil, nil, nil, fmt.Errorf("index: block %d document %d outside its range", i, doc)
		}
		count, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("index: corrupt block %d match count", i)
		}
		b = b[n:]
		// Every match costs at least 2 bytes in the match area.
		if count == 0 || count > uint64(info.Len)/2 {
			return nil, nil, nil, fmt.Errorf("index: block %d match count %d exceeds payload", i, count)
		}
		docs[d] = doc
		nMatch[d] = int(count)
	}
	if docs[0] != info.FirstDoc || docs[len(docs)-1] != info.LastDoc {
		return nil, nil, nil, fmt.Errorf("index: block %d document range disagrees with skip entry", i)
	}
	return docs, nMatch, b, nil
}

// DecodeBlock fully unpacks block i: the document ids and, aligned
// with them, each document's match list (subslices of one flat
// backing list, position-sorted with palette scores applied). Every
// invariant is validated, including that the skip entry's max index
// equals the maximum score index actually present — the check that
// keeps block-max pruning sound against hostile bytes.
func (bt *BlockTable) DecodeBlock(i int) (docs []int, lists []match.List, err error) {
	if bt.batch {
		return bt.decodeBlockBatch(i)
	}
	docs, nMatch, b, err := bt.decodeDir(i)
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, c := range nMatch {
		total += c
	}
	if uint64(total) > uint64(len(b))/2 {
		return nil, nil, fmt.Errorf("index: block %d match total %d exceeds payload", i, total)
	}
	flat := make(match.List, 0, total)
	lists = make([]match.List, len(docs))
	maxSeen := 0
	for d := range docs {
		begin := len(flat)
		pos := 0
		for m := 0; m < nMatch[d]; m++ {
			pd, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, nil, fmt.Errorf("index: corrupt block %d position delta", i)
			}
			b = b[n:]
			if pd > MaxPosition {
				return nil, nil, fmt.Errorf("index: block %d position delta %d exceeds %d", i, pd, uint64(MaxPosition))
			}
			if m > 0 && pd == 0 {
				return nil, nil, fmt.Errorf("index: block %d positions not strictly ascending in doc %d", i, docs[d])
			}
			pos += int(pd)
			if pos > MaxPosition {
				return nil, nil, fmt.Errorf("index: block %d position %d exceeds %d", i, pos, int64(MaxPosition))
			}
			idx, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, nil, fmt.Errorf("index: corrupt block %d score index", i)
			}
			b = b[n:]
			if idx >= uint64(len(bt.Palette)) {
				return nil, nil, fmt.Errorf("index: block %d score index %d out of palette range", i, idx)
			}
			if int(idx) > maxSeen {
				maxSeen = int(idx)
			}
			flat = append(flat, match.Match{Loc: pos, Score: bt.Palette[idx]})
		}
		lists[d] = flat[begin:len(flat):len(flat)]
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("index: %d trailing bytes in block %d", len(b), i)
	}
	if maxSeen != bt.Infos[i].MaxIdx {
		return nil, nil, fmt.Errorf("index: block %d max index %d disagrees with content max %d",
			i, bt.Infos[i].MaxIdx, maxSeen)
	}
	return docs, lists, nil
}

// Validate fully decodes every block — the eager load-time gate, so
// corrupt or adversarial bytes fail at LoadCompact rather than at
// query time.
func (bt *BlockTable) Validate() error {
	if bt == nil {
		return nil
	}
	for i := range bt.Infos {
		if _, _, err := bt.DecodeBlock(i); err != nil {
			return err
		}
	}
	return nil
}

// BuildConceptBlocks computes a concept's block-partitioned posting
// buffer from the compressed postings. The empty concept (no corpus
// occurrences) builds to nil.
func (c *Compact) BuildConceptBlocks(concept Concept) []byte {
	docs, lists, _ := c.conceptDocLists(context.Background(), concept)
	return EncodeBlocks(docs, lists, 0)
}

// BuildConceptBlocksBatch is BuildConceptBlocks for the group-varint
// batched layout (batchdecode.go). ok is false when some value exceeds
// the uint32 the batch form can carry; the caller keeps the varint
// form then.
func (c *Compact) BuildConceptBlocksBatch(concept Concept) ([]byte, bool) {
	docs, lists, _ := c.conceptDocLists(context.Background(), concept)
	return EncodeBlocksBatch(docs, lists, 0)
}

// mergePollStride is how many postings conceptDocLists merges between
// context polls: a multi-million-posting merge must not outlive the
// query that asked for it, and a posting count is a steady clock.
const mergePollStride = 1 << 12

// conceptDocLists computes a concept's corpus-wide match data — the
// one "best member-word score wins" merge behind block registration,
// the on-demand table build and the pair lists. It is a k-way merge of
// the member words' posting lists in (document, position) order: each
// word's postings are already sorted that way, so every match is
// emitted in final order straight into one flat backing list, and the
// per-document lists are capped subslices of it. Words of one concept
// can share a (document, position) — only when they share a stem —
// and such duplicates are adjacent in merge order, where the higher
// weight wins. ok is false when ctx ended before the merge did; the
// partial output must be discarded. Corrupt posting bytes panic, as in
// Compact.Postings.
func (c *Compact) conceptDocLists(ctx context.Context, concept Concept) (docs []int, lists []match.List, ok bool) {
	type source struct {
		ps    []Posting
		score float64
	}
	srcs := make([]source, 0, len(concept))
	total := 0
	for word, score := range concept {
		if ps := c.Postings(word); len(ps) > 0 {
			srcs = append(srcs, source{ps: ps, score: score})
			total += len(ps)
		}
	}
	flat := make(match.List, 0, total)
	curDoc, begin := -1, 0
	for merged := 0; ; merged++ {
		if merged%mergePollStride == 0 && ctx.Err() != nil {
			return nil, nil, false
		}
		min := -1
		for s := range srcs {
			if len(srcs[s].ps) == 0 {
				continue
			}
			if min < 0 {
				min = s
				continue
			}
			p, q := srcs[s].ps[0], srcs[min].ps[0]
			if p.Doc < q.Doc || (p.Doc == q.Doc && p.Pos < q.Pos) {
				min = s
			}
		}
		if min < 0 {
			break
		}
		src := &srcs[min]
		p := src.ps[0]
		src.ps = src.ps[1:]
		if p.Doc != curDoc {
			if curDoc >= 0 {
				lists = append(lists, flat[begin:len(flat):len(flat)])
			}
			docs = append(docs, p.Doc)
			curDoc, begin = p.Doc, len(flat)
		}
		if n := len(flat); n > begin && flat[n-1].Loc == p.Pos {
			if src.score > flat[n-1].Score {
				flat[n-1].Score = src.score
			}
			continue
		}
		flat = append(flat, match.Match{Loc: p.Pos, Score: src.score})
	}
	if curDoc >= 0 {
		lists = append(lists, flat[begin:len(flat):len(flat)])
	}
	return docs, lists, true
}

// encodeConceptBlocks packs merged match data in the group-varint
// batched layout (batchdecode.go) whenever preferBatch is set and the
// values fit it, falling back to the per-integer varint layout
// otherwise; queries see identical match lists either way. The empty
// input encodes to nil.
func encodeConceptBlocks(docs []int, lists []match.List, blockSize int, preferBatch bool) (buf []byte, batch bool) {
	if preferBatch {
		if buf, ok := EncodeBlocksBatch(docs, lists, blockSize); ok && buf != nil {
			return buf, true
		}
	}
	return EncodeBlocks(docs, lists, blockSize), false
}

// BuildBlockTable builds a concept's block table straight from the
// postings, without registering it: how a concept that has no
// registered table is served. The table goes through the same encoder
// and the same DecodeBlocksBatch/DecodeBlocks validation as one loaded
// from disk, so it is indistinguishable from a registered one; a
// concept absent from the corpus yields an empty table. The error is
// ctx's when the build was abandoned, or names a non-finite weight.
// Corrupt posting bytes panic, as in Compact.Postings.
func (c *Compact) BuildBlockTable(ctx context.Context, concept Concept) (*BlockTable, error) {
	if !concept.Finite() {
		return nil, fmt.Errorf("index: concept has a non-finite weight")
	}
	docs, lists, ok := c.conceptDocLists(ctx, concept)
	if !ok {
		return nil, ctx.Err()
	}
	buf, batch := encodeConceptBlocks(docs, lists, 0, true)
	if buf == nil {
		return &BlockTable{}, nil
	}
	if batch {
		return DecodeBlocksBatch(buf)
	}
	return DecodeBlocks(buf)
}

// AddConceptBlocks precomputes and registers a concept's
// block-partitioned postings, keyed by ConceptKey. Call it at build
// time, before the index starts serving queries: Compact is otherwise
// read-only and concurrent readers do not lock. Concepts with
// non-finite weights or no corpus occurrences are skipped (nothing to
// serve, and non-finite scores would poison every bound comparison).
//
// The buffer is stored in the group-varint batched layout
// (batchdecode.go) whenever the concept's values fit it, falling back
// to the per-integer varint layout otherwise; queries see identical
// match lists either way.
func (c *Compact) AddConceptBlocks(concept Concept) {
	c.addConceptBlocks(concept, 0, true)
}

// AddConceptBlocksSized is AddConceptBlocks with an explicit block
// size — a test and tuning hook; ≤ 0 means BlockSize. Unlike
// AddConceptBlocks it always stores the varint layout, so tests that
// poke varint buffers (and the corruption hooks in testhook.go) keep a
// stable target.
func (c *Compact) AddConceptBlocksSized(concept Concept, blockSize int) {
	c.addConceptBlocks(concept, blockSize, false)
}

// AddConceptBlocksBatchSized registers the batched layout with an
// explicit block size, reporting whether the batch form was used
// (false means the values did not fit uint32 and the varint form was
// stored instead).
func (c *Compact) AddConceptBlocksBatchSized(concept Concept, blockSize int) bool {
	return c.addConceptBlocks(concept, blockSize, true)
}

func (c *Compact) addConceptBlocks(concept Concept, blockSize int, preferBatch bool) bool {
	if !concept.Finite() {
		return false
	}
	docs, lists, _ := c.conceptDocLists(context.Background(), concept)
	buf, batch := encodeConceptBlocks(docs, lists, blockSize, preferBatch)
	if buf == nil {
		return false
	}
	key := ConceptKey(concept)
	if batch {
		if c.batch == nil {
			c.batch = make(map[uint64][]byte)
		}
		c.batch[key] = buf
		delete(c.blocks, key)
		return true
	}
	if c.blocks == nil {
		c.blocks = make(map[uint64][]byte)
	}
	c.blocks[key] = buf
	delete(c.batch, key)
	return false
}

// ConceptBlocks returns a concept's registered block table — batched
// or varint, whichever layout the concept was registered with — or
// ok=false when the concept was never registered. Like
// Compact.Postings, a decode failure indicates memory corruption
// (LoadCompact validates every buffer eagerly) and fails loudly.
func (c *Compact) ConceptBlocks(concept Concept) (*BlockTable, bool) {
	key := ConceptKey(concept)
	if b, ok := c.batch[key]; ok {
		bt, err := DecodeBlocksBatch(b)
		if err != nil || bt == nil {
			panic(fmt.Sprintf("index: corrupt batched concept blocks: %v", err))
		}
		return bt, true
	}
	b, ok := c.blocks[key]
	if !ok {
		return nil, false
	}
	bt, err := DecodeBlocks(b)
	if err != nil || bt == nil {
		panic(fmt.Sprintf("index: corrupt concept blocks: %v", err))
	}
	return bt, true
}

// ConceptBlocksCount returns the number of registered block tables
// across both layouts.
func (c *Compact) ConceptBlocksCount() int { return len(c.blocks) + len(c.batch) }
