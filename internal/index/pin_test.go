package index

import (
	"encoding/binary"
	"math"
	"sort"

	"bestjoin/internal/match"
)

// The encoder of the retired concept block codec, kept only as the
// input TestMarshalBytesPinned hashes: the pin covers the merged
// concept lists too, through the bytes this encoder wrote for them, so
// a change to the footnote-1 merge still moves the hash. Nothing
// decodes these bytes any more.

// escapeLane is the lane value that, in a flagged table, stands for a
// value carried in its stream's trailer.
const escapeLane = math.MaxUint32

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
