package index

import (
	"encoding/binary"

	"bestjoin/internal/match"
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

// RejectedShapesForTest returns inputs every loader, and the
// /swapindex endpoint, must refuse, each keyed by a phrase of the
// ErrCorrupt-wrapped error that refuses it: c's postings unframed (the
// bare pre-framing payload, no magic and no checksums); framed with a
// correctly checksummed retired section 2 or 3; and framed with a
// section 4 listing one concept key three times — two tables, then an
// empty buffer. Not for production use.
func RejectedShapesForTest(c *Compact) map[string][]byte {
	postings := c.marshalPostings()
	framed := func(id byte, payload []byte) []byte {
		b := binary.AppendUvarint(append([]byte(frameMagic), frameVersion), 2)
		return appendSection(appendSection(b, secPostings, postings), id, payload)
	}
	table := EncodeBlocks([]int{0}, []match.List{{{Loc: 0, Score: 1}}}, 0)
	dup := binary.AppendUvarint(nil, 3)
	for _, t := range [][]byte{table, table, nil} {
		dup = binary.LittleEndian.AppendUint64(dup, 7)
		dup = append(binary.AppendUvarint(dup, uint64(len(t))), t...)
	}
	return map[string][]byte{
		"missing magic":      postings,
		"section 2":          framed(2, []byte{0}),
		"section 3":          framed(3, []byte{0}),
		"section 4: entry 1": framed(secBlocks, dup),
	}
}

// CorruptConceptBlocksForTest replaces a concept's registered block
// buffer with bytes DecodeBlocks rejects, so ConceptBlocks panics: the
// in-memory corruption the engine's block-table lookup must contain.
// Not for production use.
func CorruptConceptBlocksForTest(c *Compact, concept Concept) {
	c.blocks[ConceptKey(concept)] = []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
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
// concept's registered block buffer while leaving the palette and
// skip table intact: ConceptBlocks still succeeds, but any per-block
// directory or match-area decode fails. Exercises the engine's lazy
// per-block failure paths. Not for production use.
func CorruptConceptBlockPayloadForTest(c *Compact, concept Concept) {
	b := c.blocks[ConceptKey(concept)]
	bt, err := DecodeBlocks(b)
	if err != nil || bt == nil {
		panic("CorruptConceptBlockPayloadForTest: buffer must start valid")
	}
	last := bt.Infos[len(bt.Infos)-1]
	for i := len(b) - (last.Off + last.Len); i < len(b); i++ {
		b[i] = 0xff
	}
}

// CorruptConceptBlockLastDocForTest sets the palette index of the last
// match of a concept's registered unflagged table — the buffer's last
// byte, a one-byte lane — to 0xff, outside any palette that small:
// DecodeBlock rejects the last block, DecodeBlockDocs still indexes it,
// and only its last document fails to decode. Not for production use.
func CorruptConceptBlockLastDocForTest(c *Compact, concept Concept) {
	b := c.blocks[ConceptKey(concept)]
	bt, err := DecodeBlocks(b)
	if err != nil || bt == nil || bt.wide || len(bt.Palette) >= 0xff {
		panic("CorruptConceptBlockLastDocForTest: buffer must start valid, unflagged, with a small palette")
	}
	b[len(b)-1] = 0xff
}
