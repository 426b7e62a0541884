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

// RetiredShapesForTest returns c's postings in the two input shapes
// LoadCompact no longer accepts: unframed (the bare pre-framing
// payload, no magic and no checksums) and framed with a correctly
// checksummed section 2. Every loader, and the /swapindex endpoint,
// must refuse both. Not for production use.
func RetiredShapesForTest(c *Compact) (unframed, section2 []byte) {
	unframed = c.marshalPostings()
	section2 = append([]byte(frameMagic), frameVersion)
	section2 = binary.AppendUvarint(section2, 2)
	section2 = appendSection(section2, secPostings, unframed)
	return unframed, appendSection(section2, secRetiredMeta, []byte{0})
}

// CorruptConceptBlocksForTest replaces a concept's registered block
// buffer — batched or varint, whichever layout it was registered with
// — with bytes both decoders reject, so ConceptBlocks panics: the
// in-memory corruption the engine's block-table lookup must contain.
// Not for production use.
func CorruptConceptBlocksForTest(c *Compact, concept Concept) {
	garbage := []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
	}
	key := ConceptKey(concept)
	if _, ok := c.batch[key]; ok {
		c.batch[key] = garbage
		return
	}
	c.blocks[key] = garbage
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
// per-block failure paths for whichever layout the concept was
// registered with. Not for production use.
func CorruptConceptBlockPayloadForTest(c *Compact, concept Concept) {
	key := ConceptKey(concept)
	b, bt := c.blocks[key], (*BlockTable)(nil)
	var err error
	if bb, ok := c.batch[key]; ok {
		b = bb
		bt, err = DecodeBlocksBatch(bb)
	} else {
		bt, err = DecodeBlocks(b)
	}
	if err != nil || bt == nil {
		panic("CorruptConceptBlockPayloadForTest: buffer must start valid")
	}
	last := bt.Infos[len(bt.Infos)-1]
	for i := len(b) - (last.Off + last.Len); i < len(b); i++ {
		b[i] = 0xff
	}
}
