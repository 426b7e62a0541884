package index

import (
	"encoding/binary"

	"bestjoin/internal/text"
)

// CorruptPostingsForTest overwrites the compressed posting bytes of
// word with an undecodable buffer, simulating in-memory corruption of
// a live index. Compact.Postings panics on such bytes by design;
// robustness tests in other packages use this hook to prove the query
// engine contains that panic (degraded result, process survives).
// Not for production use.
func CorruptPostingsForTest(c *Compact, word string) {
	// A 10-byte varint encoding an absurd posting count followed by no
	// payload: rejected by every DecodePostings validation layer.
	c.postings[text.Stem(word)] = []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
	}
}

// SetBlockSizeForTest makes the tables c builds (ConceptBlocks) hold n
// documents per block instead of BlockSize, so small test corpora span
// many blocks; n ≤ 0 restores BlockSize. Partition passes the size on
// to the shards. Call it before c serves queries. Not for production
// use.
func SetBlockSizeForTest(c *Compact, n int) { c.blockSize = n }

// RejectedShapesForTest returns inputs every loader, and the
// /swapindex endpoint, must refuse, each keyed by a phrase of the
// ErrCorrupt-wrapped error that refuses it: c's postings unframed (the
// bare pre-framing payload, no magic and no checksums), and framed with
// a correctly checksummed retired section 2, 3 or 4. Not for
// production use.
func RejectedShapesForTest(c *Compact) map[string][]byte {
	postings := c.marshalPostings()
	framed := func(id byte) []byte {
		b := binary.AppendUvarint(append([]byte(frameMagic), frameVersion), 2)
		return appendSection(appendSection(b, secPostings, postings), id, []byte{0})
	}
	return map[string][]byte{
		"missing magic": postings,
		"section 2":     framed(2),
		"section 3":     framed(3),
		"section 4":     framed(4),
	}
}

// CorruptConceptPairsForTest overwrites a registered pair list with
// bytes DecodePairs rejects, so ConceptPairs panics: the in-memory
// corruption the engine's pair lookup must contain by falling back to
// the kernel path. Not for production use.
func CorruptConceptPairsForTest(c *Compact, a, b Concept, spec uint64) {
	c.pairs[MakePairKey(ConceptKey(a), ConceptKey(b), spec)] = []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
	}
}

// CorruptConceptPairPayloadForTest overwrites the payload area of a
// registered pair list while leaving the skip table intact:
// ConceptPairs still succeeds, but per-block decodes fail — the
// mid-serve failure path, which must abandon the pair serve and fall
// back to the kernel path. Not for production use.
func CorruptConceptPairPayloadForTest(c *Compact, a, b Concept, spec uint64) {
	key := MakePairKey(ConceptKey(a), ConceptKey(b), spec)
	buf := c.pairs[key]
	pt, err := DecodePairs(buf)
	if err != nil || pt == nil {
		panic("CorruptConceptPairPayloadForTest: buffer must start valid")
	}
	last := pt.Infos[len(pt.Infos)-1]
	for i := len(buf) - (last.Off + last.Len); i < len(buf); i++ {
		buf[i] = 0xff
	}
}

// CorruptConceptBlockPayloadForTest overwrites the payload area of a
// built block table while leaving the palette and skip table intact:
// the table still finds blocks, but every block's directory and
// match-area decodes fail. Exercises the engine's lazy per-block
// failure paths. Not for production use.
func CorruptConceptBlockPayloadForTest(bt *BlockTable) {
	if bt.NumBlocks() == 0 {
		panic("CorruptConceptBlockPayloadForTest: table must have a block")
	}
	for i := range bt.payload {
		bt.payload[i] = 0xff
	}
}

// CorruptConceptBlockLastDocForTest sets the palette index of the last
// match of a built unflagged table — its payload's last byte, a
// one-byte lane — to 0xff, outside any palette that small: DecodeBlock
// rejects the last block, DecodeBlockDocs still indexes it, and only
// its last document fails to decode. Not for production use.
func CorruptConceptBlockLastDocForTest(bt *BlockTable) {
	if bt.NumBlocks() == 0 || bt.wide || len(bt.Palette) >= 0xff {
		panic("CorruptConceptBlockLastDocForTest: table must be non-empty, unflagged, with a small palette")
	}
	bt.payload[len(bt.payload)-1] = 0xff
}
