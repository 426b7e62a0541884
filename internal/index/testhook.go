package index

import (
	"encoding/binary"

	"bestjoin/internal/text"
)

// CorruptPostingsForTest overwrites the posting bytes of word with an
// undecodable buffer — a 10-byte varint of an absurd posting count and
// no payload — simulating in-memory corruption of a live index, which
// the engine must contain (degraded result, process survives). Not for
// production use.
func CorruptPostingsForTest(c *Compact, word string) {
	c.setPostings(text.Stem(word), []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
	})
}

// RejectedShapesForTest returns inputs every loader, and /swapindex,
// must refuse, keyed by a phrase of the ErrCorrupt-wrapped error that
// refuses each: c's postings unframed (no magic, no checksums), and
// framed with a correctly checksummed retired section 2, 3 or 4. Not
// for production use.
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
// registered pair list, skip table intact: ConceptPairs succeeds but
// block decodes fail — the mid-serve failure path, which must abandon
// the pair serve for the kernel path. Not for production use.
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
