package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Persistence for compacted indexes: a Compact serializes to a single
// byte buffer (and back) so precomputed indexes can be stored on disk
// or shipped between processes.
//
// Since the crash-safety work the on-disk form is framed: a 4-byte
// magic, a format version, and a sequence of sections, each carrying
// its own CRC32-C (Castagnoli) checksum so truncation and bit-rot are
// detected at load time instead of surfacing as silently wrong query
// results. Layout:
//
//	"BJIX" version(1) varint(#sections)
//	per section: id(1) varint(len) payload crc32c(payload, 4 bytes LE)
//
// Section 1 holds the posting payload — varint(docs), varint(#terms),
// then per term (sorted by stem for determinism) varint(len(stem))
// stem varint(len(postings)) postings, where postings is the
// varint-packed buffer of compress.go. Section 3, present only when
// block-partitioned concept postings are registered in the varint
// layout (blocks.go), holds varint(#concepts), then per concept
// (sorted by key) uint64le(key) varint(len) EncodeBlocks buffer.
// Section 4, present only when group-varint batched concept postings
// are registered (batchdecode.go), repeats that shape with
// EncodeBlocksBatch buffers. Section 5, present only when precomputed
// pair lists are registered (pairs.go), holds varint(#pairs), then per
// pair (sorted by key) uint64le(lo) uint64le(hi) uint64le(spec)
// varint(len) EncodePairs buffer. An index that omits an optional
// section simply lacks the feature; an unknown section id is rejected
// loudly instead of being misparsed.
//
// Two shapes older code could read are rejected, each with an
// ErrCorrupt-wrapped error naming what was seen: section 2 (per-concept
// doc-max metadata, a representation the engine no longer serves), and
// unframed input (the pre-framing layout, which carried no checksums —
// nothing but tests ever wrote either).

// Framing constants. The version byte lets the layout evolve without
// breaking old readers loudly: an unknown version is rejected with a
// precise error instead of being misparsed.
const (
	frameMagic   = "BJIX"
	frameVersion = 1

	secPostings    = 1 // posting payload: docs header + term table
	secRetiredMeta = 2 // concept max-score metadata: no longer read
	secBlocks      = 3 // optional block-partitioned concept postings
	secBlocksBatch = 4 // optional group-varint batched concept postings
	secPairs       = 5 // optional precomputed concept-pair postings
)

// castagnoli is the CRC32-C polynomial table — the checksum flavor
// with hardware support on both amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt tags every framed-index validation failure: bad magic,
// unsupported version, truncated sections, checksum mismatches,
// trailing bytes. errors.Is(err, ErrCorrupt) distinguishes "the bytes
// are damaged" from I/O errors when loading from disk.
var ErrCorrupt = errors.New("index: corrupt framed index")

// Marshal serializes the compacted index in the framed, checksummed
// form.
func (c *Compact) Marshal() []byte {
	postings := c.marshalPostings()
	blocks := c.marshalConceptMap(c.blocks)
	batch := c.marshalConceptMap(c.batch)
	pairs := c.marshalPairs()
	buf := append(make([]byte, 0, len(postings)+len(blocks)+len(batch)+len(pairs)+32), frameMagic...)
	buf = append(buf, frameVersion)
	nsec := uint64(1)
	if blocks != nil {
		nsec++
	}
	if batch != nil {
		nsec++
	}
	if pairs != nil {
		nsec++
	}
	buf = binary.AppendUvarint(buf, nsec)
	buf = appendSection(buf, secPostings, postings)
	if blocks != nil {
		buf = appendSection(buf, secBlocks, blocks)
	}
	if batch != nil {
		buf = appendSection(buf, secBlocksBatch, batch)
	}
	if pairs != nil {
		buf = appendSection(buf, secPairs, pairs)
	}
	return buf
}

// appendSection frames one payload: id, length, bytes, CRC32-C.
func appendSection(buf []byte, id byte, payload []byte) []byte {
	buf = append(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// marshalPostings builds the posting payload (section 1).
func (c *Compact) marshalPostings() []byte {
	stems := make([]string, 0, len(c.postings))
	for s := range c.postings {
		stems = append(stems, s)
	}
	sort.Strings(stems)
	buf := binary.AppendUvarint(nil, uint64(c.docs))
	buf = binary.AppendUvarint(buf, uint64(len(stems)))
	for _, s := range stems {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
		p := c.postings[s]
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// marshalConceptMap builds a per-concept payload (sections 3 and 4),
// nil when the map is empty: varint(#concepts), then per concept (sorted by key for determinism)
// uint64le(key) varint(len) buffer.
func (c *Compact) marshalConceptMap(m map[uint64][]byte) []byte {
	if len(m) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
		b := m[k]
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// marshalPairs builds the pair-list payload (section 5), nil when no
// pairs are registered. Per pair (sorted by key for determinism): the
// three key words little-endian, then the length-prefixed EncodePairs
// buffer.
func (c *Compact) marshalPairs() []byte {
	if len(c.pairs) == 0 {
		return nil
	}
	keys := make([]PairKey, 0, len(c.pairs))
	for k := range c.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		if a.Hi != b.Hi {
			return a.Hi < b.Hi
		}
		return a.Spec < b.Spec
	})
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k.Lo)
		buf = binary.LittleEndian.AppendUint64(buf, k.Hi)
		buf = binary.LittleEndian.AppendUint64(buf, k.Spec)
		p := c.pairs[k]
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// LoadCompact deserializes a Marshal buffer, verifying the framing —
// magic, version, section structure, per-section checksums, no
// trailing bytes — and eagerly validating every posting list, block
// table and pair list, so corrupt or adversarial bytes fail here
// rather than at query time. Input without the magic is refused: the
// frame's checksums are what make bytes off the wire trustworthy.
func LoadCompact(b []byte) (*Compact, error) {
	if len(b) < len(frameMagic) || string(b[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("%w: missing magic (unframed input is not accepted)", ErrCorrupt)
	}
	b = b[len(frameMagic):]
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: truncated before version", ErrCorrupt)
	}
	if b[0] != frameVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, b[0], frameVersion)
	}
	b = b[1:]
	nsec, n := binary.Uvarint(b)
	if n <= 0 || nsec == 0 || nsec > 5 {
		return nil, fmt.Errorf("%w: bad section count", ErrCorrupt)
	}
	b = b[n:]
	var postings, blocks, batch, pairs []byte
	prevID := byte(0)
	for i := uint64(0); i < nsec; i++ {
		if len(b) == 0 {
			return nil, fmt.Errorf("%w: truncated before section %d", ErrCorrupt, i)
		}
		id := b[0]
		b = b[1:]
		if id <= prevID || id > secPairs {
			return nil, fmt.Errorf("%w: bad section id %d", ErrCorrupt, id)
		}
		prevID = id
		plen, n := binary.Uvarint(b)
		// Compare without computing plen+4: a hostile length near
		// MaxUint64 would wrap the sum and pass the check.
		if n <= 0 || plen > uint64(len(b[n:])) || uint64(len(b[n:]))-plen < 4 {
			return nil, fmt.Errorf("%w: truncated section %d", ErrCorrupt, id)
		}
		b = b[n:]
		payload := b[:plen]
		b = b[plen:]
		stored := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if sum := crc32.Checksum(payload, castagnoli); sum != stored {
			return nil, fmt.Errorf("%w: checksum mismatch in section %d (stored %08x, computed %08x)",
				ErrCorrupt, id, stored, sum)
		}
		switch id {
		case secPostings:
			postings = payload
		case secRetiredMeta:
			return nil, fmt.Errorf("%w: section %d (concept max-score metadata) is no longer supported", ErrCorrupt, id)
		case secBlocks:
			blocks = payload
		case secBlocksBatch:
			batch = payload
		case secPairs:
			pairs = payload
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b))
	}
	if postings == nil {
		return nil, fmt.Errorf("%w: no posting section", ErrCorrupt)
	}
	c, rest, err := parsePostings(postings)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in posting section", ErrCorrupt, len(rest))
	}
	if blocks != nil {
		rest, err := parseBlocks(c, blocks)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in blocks section", ErrCorrupt, len(rest))
		}
	}
	if batch != nil {
		rest, err := parseBlocksBatch(c, batch)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in batched-blocks section", ErrCorrupt, len(rest))
		}
	}
	if pairs != nil {
		rest, err := parsePairs(c, pairs)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in pairs section", ErrCorrupt, len(rest))
		}
	}
	return c, nil
}

// parsePostings decodes the posting payload — docs header plus term
// table — returning the unconsumed remainder.
func parsePostings(b []byte) (*Compact, []byte, error) {
	docs, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("index: corrupt docs header")
	}
	b = b[n:]
	nTerms, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("index: corrupt term count")
	}
	b = b[n:]
	// Each term costs at least 3 bytes (stem length, one stem byte,
	// posting length); reject counts the buffer cannot hold so corrupt
	// input cannot drive huge allocations.
	if nTerms > uint64(len(b))/3+1 {
		return nil, nil, fmt.Errorf("index: term count %d exceeds buffer", nTerms)
	}
	c := &Compact{postings: make(map[string][]byte, nTerms), docs: int(docs)}
	for i := uint64(0); i < nTerms; i++ {
		slen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b[n:])) < slen {
			return nil, nil, fmt.Errorf("index: corrupt stem %d", i)
		}
		b = b[n:]
		stem := string(b[:slen])
		b = b[slen:]
		plen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b[n:])) < plen {
			return nil, nil, fmt.Errorf("index: corrupt postings for %q", stem)
		}
		b = b[n:]
		postings := make([]byte, plen)
		copy(postings, b[:plen])
		b = b[plen:]
		// Validate eagerly so a corrupt load fails here, not at query
		// time.
		if _, err := DecodePostings(postings); err != nil {
			return nil, nil, fmt.Errorf("index: invalid postings for %q: %v", stem, err)
		}
		c.postings[stem] = postings
	}
	return c, b, nil
}

// parseBlocks decodes the block-partitioned-postings payload into
// c.blocks, returning the unconsumed remainder. Every block of every
// concept is fully decoded here — the same eager-validation stance as
// postings, so ConceptBlocks can treat decode failure as memory
// corruption.
func parseBlocks(c *Compact, b []byte) ([]byte, error) {
	m, rest, err := parseConceptBlockMap(b, DecodeBlocks)
	if err != nil {
		return nil, err
	}
	c.blocks = m
	return rest, nil
}

// parseBlocksBatch is parseBlocks for the group-varint batched layout
// (section 4), filling c.batch.
func parseBlocksBatch(c *Compact, b []byte) ([]byte, error) {
	m, rest, err := parseConceptBlockMap(b, DecodeBlocksBatch)
	if err != nil {
		return nil, err
	}
	c.batch = m
	return rest, nil
}

// parsePairs decodes the pair-list payload into c.pairs, returning
// the unconsumed remainder. Every block of every pair list is fully
// decoded here — the same eager-validation stance as postings — so
// ConceptPairs can treat decode failure as memory corruption.
func parsePairs(c *Compact, b []byte) ([]byte, error) {
	nPairs, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("index: corrupt pair-list count")
	}
	b = b[n:]
	// Each pair costs at least 25 bytes (three 8-byte key words, one
	// length byte).
	if nPairs > uint64(len(b))/25 {
		return nil, fmt.Errorf("index: pair-list count %d exceeds buffer", nPairs)
	}
	c.pairs = make(map[PairKey][]byte, nPairs)
	for i := uint64(0); i < nPairs; i++ {
		if len(b) < 24 {
			return nil, fmt.Errorf("index: truncated pair-list key %d", i)
		}
		key := PairKey{
			Lo:   binary.LittleEndian.Uint64(b),
			Hi:   binary.LittleEndian.Uint64(b[8:]),
			Spec: binary.LittleEndian.Uint64(b[16:]),
		}
		b = b[24:]
		if key.Lo > key.Hi {
			return nil, fmt.Errorf("index: pair-list key %d not in canonical order", i)
		}
		plen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b[n:])) < plen {
			return nil, fmt.Errorf("index: corrupt pair list %d", i)
		}
		b = b[n:]
		buf := make([]byte, plen)
		copy(buf, b[:plen])
		b = b[plen:]
		pt, err := DecodePairs(buf)
		if err != nil {
			return nil, fmt.Errorf("index: invalid pair list %d: %v", i, err)
		}
		if err := pt.Validate(); err != nil {
			return nil, fmt.Errorf("index: invalid pair list %d: %v", i, err)
		}
		if pt == nil {
			continue // zero-length buffer: nothing to serve
		}
		c.pairs[key] = buf
	}
	return b, nil
}

// parseConceptBlockMap parses one per-concept block-table payload with
// the given block decoder, eagerly validating every block of every
// concept.
func parseConceptBlockMap(b []byte, decode func([]byte) (*BlockTable, error)) (map[uint64][]byte, []byte, error) {
	nBlk, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("index: corrupt concept-blocks count")
	}
	b = b[n:]
	// Each concept costs at least 9 bytes (8-byte key, length byte).
	if nBlk > uint64(len(b))/9 {
		return nil, nil, fmt.Errorf("index: concept-blocks count %d exceeds buffer", nBlk)
	}
	m := make(map[uint64][]byte, nBlk)
	for i := uint64(0); i < nBlk; i++ {
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("index: truncated concept-blocks key %d", i)
		}
		key := binary.LittleEndian.Uint64(b)
		b = b[8:]
		blen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b[n:])) < blen {
			return nil, nil, fmt.Errorf("index: corrupt concept blocks %d", i)
		}
		b = b[n:]
		blk := make([]byte, blen)
		copy(blk, b[:blen])
		b = b[blen:]
		bt, err := decode(blk)
		if err != nil {
			return nil, nil, fmt.Errorf("index: invalid concept blocks %d: %v", i, err)
		}
		if err := bt.Validate(); err != nil {
			return nil, nil, fmt.Errorf("index: invalid concept blocks %d: %v", i, err)
		}
		if bt == nil {
			continue // zero-length buffer: nothing to serve
		}
		m[key] = blk
	}
	return m, b, nil
}
