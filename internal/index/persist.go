package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
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
// then per term, in strictly ascending stem order, varint(len(stem))
// stem varint(len(postings)) postings, where postings is the non-empty
// varint-packed buffer of compress.go. That is what Marshal writes and
// all the loader accepts, so a repeated stem cannot silently replace
// an earlier one. Nothing per concept or concept pair is persisted: a
// stem's plain arrays are decoded from section 1 on first use
// (Compact.Stem), and no query is served from a pair list.
//
// Five shapes older code could write are rejected, each with an
// ErrCorrupt-wrapped error naming what was seen: section 2 (per-concept
// doc-max metadata, a representation the engine no longer serves),
// section 3 (concept block tables in a per-integer varint codec),
// section 4 (registered concept block tables, a second copy of what
// section 1 holds: rebuild such a file from its corpus), section 5
// (precomputed concept-pair lists, which no query is served from) and
// unframed input (the pre-framing layout, which
// carried no checksums). An unknown section id is rejected loudly
// instead of being misparsed.

// Framing constants. The version byte lets the layout evolve without
// breaking old readers loudly: an unknown version is rejected with a
// precise error instead of being misparsed.
const (
	frameMagic   = "BJIX"
	frameVersion = 1

	secPostings = 1 // posting payload: docs header + term table
	lastSection = 5 // the highest id any writer used
)

// retiredSections names the section ids older writers used that this
// reader refuses.
var retiredSections = map[byte]string{
	2: "concept max-score metadata",
	3: "varint concept block tables",
	4: "registered concept block tables; tables are built from the postings now",
	5: "precomputed concept-pair lists; no query is served from them",
}

// castagnoli is the CRC32-C polynomial table — the checksum flavor
// with hardware support on both amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt tags every framed-index validation failure: bad magic,
// unsupported version, truncated sections, checksum mismatches,
// trailing bytes, malformed entries. errors.Is(err, ErrCorrupt)
// distinguishes "the bytes are damaged" from I/O errors when loading
// from disk.
var ErrCorrupt = errors.New("index: corrupt framed index")

// Marshal serializes the compacted index in the framed, checksummed
// form. Registered pair lists are not written.
func (c *Compact) Marshal() []byte {
	payload := c.marshalPostings()
	// Room for magic, version, section count, id, length and checksum.
	buf := append(make([]byte, 0, len(payload)+32), frameMagic...)
	buf = append(buf, frameVersion)
	buf = binary.AppendUvarint(buf, 1)
	return appendSection(buf, secPostings, payload)
}

// marshalPostings builds the posting payload (section 1).
func (c *Compact) marshalPostings() []byte {
	buf := binary.AppendUvarint(nil, uint64(c.docs))
	buf = binary.AppendUvarint(buf, uint64(len(c.postings)))
	for _, stem := range slices.Sorted(maps.Keys(c.postings)) {
		buf = append(binary.AppendUvarint(buf, uint64(len(stem))), stem...)
		buf = binary.AppendUvarint(buf, uint64(len(c.postings[stem])))
		buf = append(buf, c.postings[stem]...)
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

// LoadCompact deserializes a Marshal buffer, verifying the framing —
// magic, version, section structure, per-section checksums, no
// trailing bytes — and eagerly validating every posting list, so
// corrupt or adversarial bytes fail here rather than at query time.
// Input without the magic is refused: the frame's checksums are what
// make bytes off the wire trustworthy.
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
	if n <= 0 || nsec == 0 || nsec > lastSection {
		return nil, fmt.Errorf("%w: bad section count", ErrCorrupt)
	}
	b = b[n:]
	c := &Compact{}
	prevID := byte(0)
	for i := uint64(0); i < nsec; i++ {
		if len(b) == 0 {
			return nil, fmt.Errorf("%w: truncated before section %d", ErrCorrupt, i)
		}
		id := b[0]
		b = b[1:]
		if id <= prevID || id > lastSection {
			return nil, fmt.Errorf("%w: bad section id %d", ErrCorrupt, id)
		}
		// Ids ascend, so the mandatory posting section comes first.
		if i == 0 && id != secPostings {
			return nil, fmt.Errorf("%w: no posting section", ErrCorrupt)
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
		if what, retired := retiredSections[id]; retired {
			return nil, fmt.Errorf("%w: section %d (%s) is no longer supported", ErrCorrupt, id, what)
		}
		if err := parsePostings(c, payload); err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, id, err)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b))
	}
	return c, nil
}

// parsePostings decodes the posting payload — docs header plus term
// table — validating every posting list eagerly so a corrupt load
// fails here, not at query time. Stems must be strictly ascending and
// posting buffers non-empty, and the table must fill b.
func parsePostings(c *Compact, b []byte) error {
	docs, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("corrupt docs header")
	}
	b = b[n:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("corrupt entry count")
	}
	b = b[n:]
	// An entry takes at least 2 bytes: stem length, posting length.
	// Bound the count before anything is allocated.
	if count > uint64(len(b)/2) {
		return fmt.Errorf("entry count %d exceeds buffer", count)
	}
	postings := make(map[string][]byte, count)
	prev := ""
	for i := uint64(0); i < count; i++ {
		slen, n := binary.Uvarint(b)
		if n <= 0 || slen > uint64(len(b[n:])) {
			return fmt.Errorf("entry %d: truncated key", i)
		}
		stem, rest := string(b[n:n+int(slen)]), b[n+int(slen):]
		if i > 0 && prev >= stem {
			return fmt.Errorf("entry %d: key %v not strictly ascending", i, stem)
		}
		blen, n := binary.Uvarint(rest)
		if n <= 0 || blen > uint64(len(rest[n:])) {
			return fmt.Errorf("entry %d: truncated buffer", i)
		}
		if blen == 0 {
			return fmt.Errorf("entry %d: empty buffer", i)
		}
		end := n + int(blen)
		buf := bytes.Clone(rest[n:end])
		if err := walkPostings(buf, func(int, int) {}); err != nil {
			return fmt.Errorf("entry %d: invalid postings for %q: %v", i, stem, err)
		}
		postings[stem] = buf
		b, prev = rest[end:], stem
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(b))
	}
	*c = *newCompact(int(docs), postings)
	return nil
}
