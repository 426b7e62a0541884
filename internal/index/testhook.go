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
// framed with a correctly checksummed retired section 2, 3, 4 or 5.
// Not for production use.
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
		"section 5":     framed(5),
	}
}

// SetConceptBudgetForTest sets the bytes of concept tables c keeps
// (ConceptBudget otherwise), so a test can pass the budget with a small
// corpus. Not for production use.
func SetConceptBudgetForTest(c *Compact, bytes int64) {
	c.concepts.mu.Lock()
	defer c.concepts.mu.Unlock()
	c.concepts.budget = bytes
}
