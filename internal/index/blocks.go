package index

import (
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
//	[varint(0)]                                // wide flag, see below
//	varint(#palette) float64le × #palette      // distinct scores, ascending
//	varint(#blocks)
//	stream of 4·#blocks values:                // skip table
//	        per block firstGap, span, payloadLen, maxIdx
//	concatenated block payloads
//
// Block payload:
//
//	varint(#docs)
//	stream of 2·#docs−1 values:                // directory
//	        count₀, then per further document docDelta, count
//	stream of 2·Σcount values:                 // match area
//	        per match posDelta, scoreIdx
//
// firstGap is the first document id for block 0 and the gap from the
// previous block's last document (≥ 1, blocks are disjoint and
// ascending) afterwards; span is lastDoc − firstDoc; maxIdx indexes
// the palette entry equal to the block's maximum match score.
// Positions restart per document; the first delta is absolute. Scores
// live in the palette: a concept has only a handful of distinct
// member-word weights, so a match stores a small index instead of
// eight float bytes. The directory comes first so candidate generation
// can decode just the document ids of a block while the match area
// (the expensive part) stays untouched until the block provably
// matters.
//
// Every stream is group-varint: values four at a time behind one
// control byte whose 2-bit fields give each value's byte length minus
// one, the values following little-endian in exactly that many bytes.
// The decoder reads the control byte once and then copies four values
// with unconditional 4-byte loads and masks — no per-byte continuation
// branches (the stream-vbyte / group-varint layout from the
// batched-decode literature).
//
// Wide values. A lane holds 32 bits, but ids and positions run to
// 2^40. A table with any value of 2^32−1 or more is flagged: it starts
// with varint(0) — a palette count no table has, so no unflagged
// buffer reads as flagged — and in it a lane of 2^32−1 is an escape:
// the true value follows the stream as a uvarint, in a trailer right
// after the stream, escapes in slot order. An unflagged table has no
// trailers and reads a 2^32−1 lane literally: that is the form of every
// table written before the escape existed, and those files must keep
// loading byte for byte.
//
// The buffers may come from disk or other untrusted storage, so
// decoding is bounded like every other decode path in this package:
// escaped values are capped at MaxDocID/MaxPosition before int
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

// escapeLane is the lane value that, in a flagged table, stands for a
// value carried in its stream's trailer.
const escapeLane = math.MaxUint32

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
	wide    bool // flagged: every stream is followed by its escape trailer
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
// scores, ids and positions within MaxDocID/MaxPosition); EncodeBlocks
// is fed by ConceptBlocks' merge and by tests.
func EncodeBlocks(docs []int, lists []match.List, blockSize int) []byte {
	if len(docs) == 0 {
		return nil
	}
	if blockSize <= 0 {
		blockSize = BlockSize
	}
	palette, scoreIdx := buildPalette(lists)
	wide := false
	stream := func(dst []byte, vals []uint64) []byte {
		dst, escaped := appendStream(dst, vals)
		wide = wide || escaped
		return dst
	}

	nBlocks := (len(docs) + blockSize - 1) / blockSize
	var payload []byte
	skipVals := make([]uint64, 0, 4*nBlocks)
	var dirVals, matchVals []uint64
	prevLast := 0
	for b := 0; b < len(docs); b += blockSize {
		e := min(b+blockSize, len(docs))
		dirVals, matchVals = dirVals[:0], matchVals[:0]
		maxIdx := 0
		for i := b; i < e; i++ {
			if i > b {
				dirVals = append(dirVals, uint64(docs[i]-docs[i-1]))
			}
			dirVals = append(dirVals, uint64(len(lists[i])))
			prev := 0
			for _, m := range lists[i] {
				idx := scoreIdx[m.Score]
				maxIdx = max(maxIdx, idx)
				matchVals = append(matchVals, uint64(m.Loc-prev), uint64(idx))
				prev = m.Loc
			}
		}
		start := len(payload)
		payload = binary.AppendUvarint(payload, uint64(e-b))
		payload = stream(payload, dirVals)
		payload = stream(payload, matchVals)
		skipVals = append(skipVals, uint64(docs[b]-prevLast), uint64(docs[e-1]-docs[b]),
			uint64(len(payload)-start), uint64(maxIdx))
		prevLast = docs[e-1]
	}

	// buf[0] is the flag, varint(0); an unflagged table drops it. A skip
	// value takes at most 5 bytes unless escaped.
	buf := make([]byte, 1, 1+2*binary.MaxVarintLen64+8*len(palette)+5*len(skipVals)+len(payload))
	buf = binary.AppendUvarint(buf, uint64(len(palette)))
	for _, s := range palette {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
	}
	buf = binary.AppendUvarint(buf, uint64(nBlocks))
	buf = append(stream(buf, skipVals), payload...)
	if !wide {
		return buf[1:]
	}
	return buf
}

// buildPalette collects the distinct match scores of lists, ascending,
// with a score → palette index map.
func buildPalette(lists []match.List) ([]float64, map[float64]int) {
	seen := make(map[float64]struct{})
	for _, l := range lists {
		for _, m := range l {
			seen[m.Score] = struct{}{}
		}
	}
	palette := make([]float64, 0, len(seen))
	for s := range seen {
		palette = append(palette, s)
	}
	sort.Float64s(palette)
	scoreIdx := make(map[float64]int, len(palette))
	for i, s := range palette {
		scoreIdx[s] = i
	}
	return palette, scoreIdx
}

// appendStream appends vals as one group-varint stream: groups of four,
// plus one short tail group when len(vals) is not a multiple of four.
// A value of escapeLane or more is stored as an escapeLane lane and
// again, after the stream, as a uvarint — the trailer, in slot order;
// escaped reports whether there was one. A stream without escapes is
// exactly its groups.
func appendStream(dst []byte, vals []uint64) (_ []byte, escaped bool) {
	for i := 0; i < len(vals); i += 4 {
		dst = appendGroup(dst, vals[i:min(i+4, len(vals))])
	}
	for _, v := range vals {
		if v >= escapeLane {
			dst, escaped = binary.AppendUvarint(dst, v), true
		}
	}
	return dst, escaped
}

// appendGroup encodes one group of 1–4 values: the control byte (2-bit
// length-minus-one fields, value i in bits 2i..2i+1), then each lane
// little-endian, a value past the lane range clamped to escapeLane. A
// short tail group leaves its unused control bits zero and contributes
// no bytes for them.
func appendGroup(dst []byte, vals []uint64) []byte {
	ctrl := byte(0)
	at := len(dst)
	dst = append(dst, 0)
	for i, x := range vals {
		v := uint32(min(x, escapeLane))
		n := byteLen32(v)
		ctrl |= byte(n-1) << (2 * uint(i))
		switch n {
		case 1:
			dst = append(dst, byte(v))
		case 2:
			dst = append(dst, byte(v), byte(v>>8))
		case 3:
			dst = append(dst, byte(v), byte(v>>8), byte(v>>16))
		default:
			dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	}
	dst[at] = ctrl
	return dst
}

// byteLen32 is the group-varint byte length of v (1–4).
func byteLen32(v uint32) int {
	switch {
	case v < 1<<8:
		return 1
	case v < 1<<16:
		return 2
	case v < 1<<24:
		return 3
	default:
		return 4
	}
}

// gvMask[l] keeps the low l bytes of an unconditional 4-byte load.
var gvMask = [5]uint32{0, 0xff, 0xffff, 0xffffff, 0xffffffff}

// decodeGroups decodes exactly len(out) group-varint values from b,
// returning the unconsumed remainder; ok is false when b runs out.
// Full groups with 17+ bytes in hand take the branch-free path: one
// control-byte read, four unconditional 4-byte little-endian loads
// masked to their declared lengths (the worst-case group is 1+16
// bytes, so 17 guarantees every load stays in bounds).
func decodeGroups(b []byte, out []uint32) (rest []byte, ok bool) {
	i := 0
	for len(out)-i >= 4 && len(b) >= 17 {
		c := b[0]
		p := b[1:]
		l0 := int(c&3) + 1
		l1 := int((c>>2)&3) + 1
		l2 := int((c>>4)&3) + 1
		l3 := int(c>>6) + 1
		out[i] = binary.LittleEndian.Uint32(p) & gvMask[l0]
		p = p[l0:]
		out[i+1] = binary.LittleEndian.Uint32(p) & gvMask[l1]
		p = p[l1:]
		out[i+2] = binary.LittleEndian.Uint32(p) & gvMask[l2]
		p = p[l2:]
		out[i+3] = binary.LittleEndian.Uint32(p) & gvMask[l3]
		b = b[1+l0+l1+l2+l3:]
		i += 4
	}
	// Tail: the short final group, or full groups too close to the end
	// of the buffer for unconditional loads.
	for i < len(out) {
		if len(b) == 0 {
			return nil, false
		}
		c := b[0]
		b = b[1:]
		k := len(out) - i
		if k > 4 {
			k = 4
		}
		for s := 0; s < k; s++ {
			l := int(c>>(2*uint(s))&3) + 1
			if len(b) < l {
				return nil, false
			}
			v := uint32(0)
			for j := 0; j < l; j++ {
				v |= uint32(b[j]) << (8 * uint(j))
			}
			out[i] = v
			b = b[l:]
			i++
		}
	}
	return b, true
}

// lane is a decoded stream value: uint32 straight from an unflagged
// table's lanes, uint64 once a flagged table's escapes are resolved.
// The decoders below are written once over both.
type lane interface{ uint32 | uint64 }

// narrowLanes decodes a stream of n values of an unflagged table.
func narrowLanes(b []byte, n int) ([]uint32, []byte, bool) {
	out := make([]uint32, n)
	b, ok := decodeGroups(b, out)
	return out, b, ok
}

// wideLanes decodes a stream of n values of a flagged table and its
// trailer: each escapeLane lane takes the trailer's next uvarint. An
// escaped value above MaxDocID (= MaxPosition, the largest value any
// slot holds) is rejected, so no later int conversion can wrap.
func wideLanes(b []byte, n int) ([]uint64, []byte, bool) {
	lanes, b, ok := narrowLanes(b, n)
	if !ok {
		return nil, nil, false
	}
	out := make([]uint64, n)
	b, ok = resolveEscapes(lanes, out, b)
	return out, b, ok
}

// resolveEscapes widens lanes into out, each escapeLane lane taking
// the next uvarint of trailer, and returns the unconsumed trailer.
func resolveEscapes(lanes []uint32, out []uint64, trailer []byte) ([]byte, bool) {
	for i, v := range lanes {
		out[i] = uint64(v)
		if v == escapeLane {
			x, k := binary.Uvarint(trailer)
			if k <= 0 || x > MaxDocID {
				return nil, false
			}
			out[i], trailer = x, trailer[k:]
		}
	}
	return trailer, true
}

// DecodeBlocks unpacks the palette and skip table of an EncodeBlocks
// buffer, retaining the payload area for per-block decoding. Hostile
// bytes yield an error, never a panic or an out-of-range table; the
// per-block payloads are validated by DecodeBlock.
func DecodeBlocks(b []byte) (*BlockTable, error) {
	if len(b) == 0 {
		return nil, nil
	}
	nPal, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("index: corrupt block palette header")
	}
	b = b[n:]
	bt := &BlockTable{wide: nPal == 0}
	if bt.wide {
		if nPal, n = binary.Uvarint(b); n <= 0 {
			return nil, fmt.Errorf("index: corrupt block palette header")
		}
		b = b[n:]
	}
	if nPal == 0 || nPal > uint64(len(b))/8 {
		return nil, fmt.Errorf("index: block palette count %d exceeds buffer", nPal)
	}
	bt.Palette = make([]float64, nPal)
	for i := range bt.Palette {
		s := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("index: block palette score %d is not finite", i)
		}
		if i > 0 && s <= bt.Palette[i-1] {
			return nil, fmt.Errorf("index: block palette not strictly ascending at %d", i)
		}
		bt.Palette[i] = s
	}
	nBlocks, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("index: corrupt block count")
	}
	b = b[n:]
	// Each block costs at least 5 skip bytes (control byte plus four
	// one-byte values) and a multi-byte payload; reject counts the
	// buffer cannot hold so corrupt input cannot drive huge allocations.
	if nBlocks == 0 || nBlocks > uint64(len(b))/5 {
		return nil, fmt.Errorf("index: block count %d exceeds buffer", nBlocks)
	}
	var err error
	if bt.wide {
		err = decodeSkips(bt, b, int(nBlocks), wideLanes)
	} else {
		err = decodeSkips(bt, b, int(nBlocks), narrowLanes)
	}
	if err != nil {
		return nil, err
	}
	return bt, nil
}

// decodeSkips parses the skip-table stream of nBlocks entries at the
// head of b into bt.Infos, keeping the rest of b as the payload area.
func decodeSkips[T lane](bt *BlockTable, b []byte, nBlocks int, read func([]byte, int) ([]T, []byte, bool)) error {
	vals, b, ok := read(b, 4*nBlocks)
	if !ok {
		return fmt.Errorf("index: truncated block skip table")
	}
	bt.Infos = make([]BlockInfo, nBlocks)
	var payloadTotal uint64
	prevLast := 0
	for i := range bt.Infos {
		gap, span, plen, maxIdx := uint64(vals[4*i]), uint64(vals[4*i+1]), uint64(vals[4*i+2]), uint64(vals[4*i+3])
		if i > 0 && gap == 0 {
			return fmt.Errorf("index: block %d overlaps its predecessor", i)
		}
		// Every value is ≤ MaxDocID, but the accumulated range can still
		// walk past the bound.
		first := prevLast + int(gap)
		last := first + int(span)
		if first > MaxDocID || last > MaxDocID {
			return fmt.Errorf("index: block %d document range exceeds %d", i, int64(MaxDocID))
		}
		if maxIdx >= uint64(len(bt.Palette)) {
			return fmt.Errorf("index: block %d max index %d out of palette range", i, maxIdx)
		}
		// Accumulate in uint64 and bound against the remaining buffer so
		// hostile lengths cannot wrap the running offset.
		if plen == 0 || plen > uint64(len(b)) || payloadTotal > uint64(len(b))-plen {
			return fmt.Errorf("index: block %d payload overruns buffer", i)
		}
		bt.Infos[i] = BlockInfo{
			FirstDoc: first,
			LastDoc:  last,
			Off:      int(payloadTotal),
			Len:      int(plen),
			MaxIdx:   int(maxIdx),
			MaxScore: bt.Palette[maxIdx],
		}
		payloadTotal += plen
		prevLast = last
	}
	if payloadTotal != uint64(len(b)) {
		return fmt.Errorf("index: %d trailing block payload bytes", uint64(len(b))-payloadTotal)
	}
	bt.payload = b
	return nil
}

// DecodeDocs unpacks only the directory of block i: the document ids
// it contains, without touching the match area. This is the
// candidate-generation path — one short stream per block instead of a
// full posting decode.
func (bt *BlockTable) DecodeDocs(i int) (docs []int, err error) {
	if bt.wide {
		docs, _, _, err = decodeDir(bt, i, wideLanes)
	} else {
		docs, _, _, err = decodeDir(bt, i, narrowLanes)
	}
	return docs, err
}

// DecodeBlock fully unpacks block i: the document ids and, aligned
// with them, each document's match list (subslices of one flat
// backing list, position-sorted with palette scores applied). Every
// invariant is validated, including that the skip entry's max index
// equals the maximum score index actually present — the check that
// keeps block-max pruning sound against hostile bytes.
func (bt *BlockTable) DecodeBlock(i int) (docs []int, lists []match.List, err error) {
	if bt.wide {
		return decodeBlock(bt, i, wideLanes)
	}
	return decodeBlock(bt, i, narrowLanes)
}

// decodeDir parses block i's directory, returning the document ids,
// per-document match counts, and the unconsumed match area.
func decodeDir[T lane](bt *BlockTable, i int, read func([]byte, int) ([]T, []byte, bool)) (docs, nMatch []int, matchArea []byte, err error) {
	info := bt.Infos[i]
	b := bt.payload[info.Off : info.Off+info.Len]
	nDocs, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, nil, fmt.Errorf("index: corrupt block %d doc count", i)
	}
	b = b[n:]
	// The directory's 2·nDocs−1 values need at least one byte each
	// beyond their control bytes, so nDocs beyond the payload length is
	// unsatisfiable; the bound caps the allocation.
	if nDocs == 0 || nDocs > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("index: block %d doc count %d exceeds payload", i, nDocs)
	}
	vals, b, ok := read(b, int(2*nDocs-1))
	if !ok {
		return nil, nil, nil, fmt.Errorf("index: truncated block %d directory", i)
	}
	docs = make([]int, nDocs)
	nMatch = make([]int, nDocs)
	doc := info.FirstDoc
	v := 0
	for d := range docs {
		if d > 0 {
			delta := vals[v]
			v++
			if delta == 0 {
				return nil, nil, nil, fmt.Errorf("index: block %d doc ids not strictly ascending", i)
			}
			doc += int(delta)
		}
		if doc > info.LastDoc {
			return nil, nil, nil, fmt.Errorf("index: block %d document %d outside its range", i, doc)
		}
		count := uint64(vals[v])
		v++
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

// decodeBlock is DecodeBlock over one lane width.
func decodeBlock[T lane](bt *BlockTable, i int, read func([]byte, int) ([]T, []byte, bool)) (docs []int, lists []match.List, err error) {
	docs, nMatch, b, err := decodeDir(bt, i, read)
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
	vals, b, ok := read(b, 2*total)
	if !ok {
		return nil, nil, fmt.Errorf("index: truncated block %d match area", i)
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("index: %d trailing bytes in block %d", len(b), i)
	}
	flat := make(match.List, 0, total)
	lists = make([]match.List, len(docs))
	maxSeen := 0
	v := 0
	for d := range docs {
		begin := len(flat)
		var top int
		flat, top, err = appendMatches(flat, vals[v:v+2*nMatch[d]], bt.Palette)
		if err != nil {
			return nil, nil, fmt.Errorf("index: block %d doc %d: %w", i, docs[d], err)
		}
		v += 2 * nMatch[d]
		maxSeen = max(maxSeen, top)
		lists[d] = flat[begin:len(flat):len(flat)]
	}
	if maxSeen != bt.Infos[i].MaxIdx {
		return nil, nil, fmt.Errorf("index: block %d max index %d disagrees with content max %d",
			i, bt.Infos[i].MaxIdx, maxSeen)
	}
	return docs, lists, nil
}

// appendMatches appends one document's matches to dst: vals holds its
// (position delta, palette index) pairs, the first delta absolute. It
// makes every per-match check a block decode makes — positions
// strictly ascending and at most MaxPosition, indices inside the
// palette — for DecodeBlock and DecodeDoc alike, and returns the
// largest palette index it read.
func appendMatches[T lane](dst match.List, vals []T, palette []float64) (match.List, int, error) {
	pos, top := 0, 0
	for m := 0; m < len(vals); m += 2 {
		pd, idx := vals[m], vals[m+1]
		if m > 0 && pd == 0 {
			return dst, 0, fmt.Errorf("positions not strictly ascending")
		}
		pos += int(pd)
		if pos > MaxPosition {
			return dst, 0, fmt.Errorf("position %d exceeds %d", pos, int64(MaxPosition))
		}
		if uint64(idx) >= uint64(len(palette)) {
			return dst, 0, fmt.Errorf("score index %d out of palette range", idx)
		}
		top = max(top, int(idx))
		dst = append(dst, match.Match{Loc: pos, Score: palette[idx]})
	}
	return dst, top, nil
}

// BlockDocs is one block whose match area is indexed but not decoded:
// the directory's document ids and, for each document, where its
// matches start. DecodeDoc unpacks one document on demand, so a reader
// that needs two documents of a block pays for two, not for the whole
// block DecodeBlock unpacks.
type BlockDocs struct {
	Docs  []int // document ids, ascending
	Total int   // Σ match counts: the block's decoded size in matches
	bt    *BlockTable
	blk   int
	area  []byte // the match area and, in a flagged table, its trailer
	at    []docStart
}

// docStart locates one document's matches in a block's match area.
type docStart struct {
	off  int   // byte offset of the group holding the document's first value
	esc  int   // flagged tables: byte offset of the document's first escape in the trailer
	n    int32 // match count
	lane int32 // the first value's lane in its group: 0 or 2
}

// gvGroupLen[c] is the byte length of a full group behind control
// byte c, the control byte included.
var gvGroupLen = func() (t [256]uint8) {
	for c := range t {
		t[c] = uint8(5 + c&3 + c>>2&3 + c>>4&3 + c>>6)
	}
	return t
}()

// scanGroup reads the first k lanes (1–4) of the group at the head of
// b without decoding them: it returns how many are escapeLane lanes
// and the bytes they span, the control byte included; ok is false when
// they overrun b.
func scanGroup(b []byte, k int) (escapes, length int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	c, p := b[0], 1
	for s := 0; s < k; s++ {
		l := int(c>>(2*uint(s))&3) + 1
		if p+l > len(b) {
			return 0, 0, false
		}
		if l == 4 && binary.LittleEndian.Uint32(b[p:]) == escapeLane {
			escapes++
		}
		p += l
	}
	return escapes, p, true
}

// DecodeBlockDocs decodes block i's directory and indexes its match
// area without decoding it: one walk over the area's control bytes
// records where each document's first group starts, its lane there
// and, in a flagged table, where its escapes start in the trailer. It
// makes DecodeBlock's whole-area checks — the match total fits the
// payload, every group is in bounds, no bytes trail the area — and
// leaves the per-match checks to DecodeDoc. The block-max agreement is
// not checked here: DecodeBlock checks it, and a table ConceptBlocks
// built holds it by construction.
func (bt *BlockTable) DecodeBlockDocs(i int) (BlockDocs, error) {
	var docs, nMatch []int
	var area []byte
	var err error
	if bt.wide {
		docs, nMatch, area, err = decodeDir(bt, i, wideLanes)
	} else {
		docs, nMatch, area, err = decodeDir(bt, i, narrowLanes)
	}
	if err != nil {
		return BlockDocs{}, err
	}
	total := 0
	for _, c := range nMatch {
		total += c
	}
	if uint64(total) > uint64(len(area))/2 {
		return BlockDocs{}, fmt.Errorf("index: block %d match total %d exceeds payload", i, total)
	}
	truncated := func() (BlockDocs, error) {
		return BlockDocs{}, fmt.Errorf("index: truncated block %d match area", i)
	}
	// Only a flagged table counts escapes; an unflagged one reads a
	// 2^32−1 lane literally.
	wide := bt.wide
	at := make([]docStart, len(docs))
	// Every group but the last is full. A document starts at an even
	// value index v: lane v&3 (0 or 2) of group v>>2.
	nVals, v, g, off, escs := 2*total, 0, 0, 0, 0
	for d, n := range nMatch {
		for ; g < v>>2; g++ {
			if off >= len(area) {
				return truncated()
			}
			if !wide {
				off += int(gvGroupLen[area[off]])
				continue
			}
			e, l, ok := scanGroup(area[off:], 4)
			if !ok {
				return truncated()
			}
			escs, off = escs+e, off+l
		}
		at[d] = docStart{off: off, esc: escs, n: int32(n), lane: int32(v & 3)}
		if wide && v&3 != 0 {
			e, _, ok := scanGroup(area[min(off, len(area)):], v&3)
			if !ok {
				return truncated()
			}
			at[d].esc += e
		}
		v += 2 * n
	}
	for ; 4*g < nVals; g++ {
		e, l, ok := scanGroup(area[min(off, len(area)):], min(4, nVals-4*g))
		if !ok {
			return truncated()
		}
		if wide {
			escs += e
		}
		off += l
	}
	// The trailer: each document's escapes start where the uvarints of
	// the escapes before it end.
	d := 0
	for e := 0; ; e++ {
		for d < len(at) && at[d].esc == e {
			at[d].esc = off
			d++
		}
		if e == escs {
			break
		}
		x, k := binary.Uvarint(area[off:])
		if k <= 0 || x > MaxDocID {
			return truncated()
		}
		off += k
	}
	if off != len(area) {
		return BlockDocs{}, fmt.Errorf("index: %d trailing bytes in block %d", len(area)-off, i)
	}
	return BlockDocs{Docs: docs, Total: total, bt: bt, blk: i, area: area, at: at}, nil
}

// Count returns the number of matches of document d (an index into
// Docs).
func (bd *BlockDocs) Count(d int) int { return int(bd.at[d].n) }

// docLanes is how many values DecodeDoc decodes on the stack; a
// document with more matches decodes into a heap buffer.
const docLanes = 256

// DecodeDoc appends the matches of document d (an index into Docs) to
// dst, position-sorted with palette scores applied, exactly as
// DecodeBlock lists them, making every per-match check DecodeBlock
// makes. dst with room for Count(d) more matches is not reallocated.
func (bd *BlockDocs) DecodeDoc(dst match.List, d int) (match.List, error) {
	at := bd.at[d]
	var buf [docLanes]uint32
	lanes := buf[:]
	if need := int(at.lane) + 2*int(at.n); need > len(lanes) {
		lanes = make([]uint32, need)
	} else {
		lanes = lanes[:need]
	}
	if _, ok := decodeGroups(bd.area[at.off:], lanes); !ok {
		return dst, fmt.Errorf("index: truncated block %d match area", bd.blk)
	}
	lanes = lanes[at.lane:]
	var err error
	if bd.bt.wide {
		dst, err = bd.decodeWide(dst, lanes, bd.area[at.esc:])
	} else {
		dst, _, err = appendMatches(dst, lanes, bd.bt.Palette)
	}
	if err != nil {
		return dst, fmt.Errorf("index: block %d doc %d: %w", bd.blk, bd.Docs[d], err)
	}
	return dst, nil
}

// decodeWide is DecodeDoc's flagged-table tail: resolve the
// document's escapes from its place in the trailer, then append.
func (bd *BlockDocs) decodeWide(dst match.List, lanes []uint32, trailer []byte) (match.List, error) {
	var buf [docLanes]uint64
	vals := buf[:]
	if len(lanes) > len(vals) {
		vals = make([]uint64, len(lanes))
	} else {
		vals = vals[:len(lanes)]
	}
	if _, ok := resolveEscapes(lanes, vals, trailer); !ok {
		return dst, fmt.Errorf("corrupt escape trailer")
	}
	dst, _, err := appendMatches(dst, vals, bd.bt.Palette)
	return dst, err
}

// conceptDocLists computes a concept's corpus-wide match data — the
// one "best member-word score wins" merge behind every block table
// (ConceptBlocks) and the pair lists. It is a k-way merge of the
// member words' posting lists in (document, position) order: each
// word's postings are already sorted that way, so every match is
// emitted in final order straight into one flat backing list, and the
// per-document lists are capped subslices of it. Words of one concept
// can share a (document, position) — only when they share a stem —
// and such duplicates are adjacent in merge order, where the higher
// weight wins. Corrupt posting bytes panic, as in Compact.Postings.
func (c *Compact) conceptDocLists(concept Concept) (docs []int, lists []match.List) {
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
	for {
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
	return docs, lists
}

// ConceptBlocks builds a concept's block table from the stem postings.
// It is the only way a table comes to exist: the index neither stores
// nor remembers one (the engine's concept cache keeps the tables it
// built for an index epoch), so every table is this merge through this
// encoder, at the index's block size. The buffer passes the same
// DecodeBlocks validation as any other. A concept absent from the
// corpus yields an empty table; ok is false only for a non-finite
// weight, which would poison every bound comparison. Corrupt posting
// bytes panic, as in Compact.Postings.
func (c *Compact) ConceptBlocks(concept Concept) (*BlockTable, bool) {
	if !concept.Finite() {
		return nil, false
	}
	docs, lists := c.conceptDocLists(concept)
	if len(docs) == 0 {
		return &BlockTable{}, true
	}
	bt, err := DecodeBlocks(EncodeBlocks(docs, lists, c.blockSize))
	if err != nil {
		panic(fmt.Sprintf("index: built concept blocks do not decode: %v", err))
	}
	return bt, true
}

// AddConceptBlocks does nothing: block tables are built from the stem
// postings on first use (ConceptBlocks) and never registered or saved.
//
// Deprecated: it remains so that callers written against the former
// registry still compile.
func (c *Compact) AddConceptBlocks(Concept) {}
