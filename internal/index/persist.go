package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strings"
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
// then per term varint(len(stem)) stem varint(len(postings)) postings,
// where postings is the varint-packed buffer of compress.go. Section 5,
// present only when precomputed pair lists are registered (pairs.go),
// holds varint(#pairs), then per pair uint64le(lo) uint64le(hi)
// uint64le(spec) varint(len) EncodePairs buffer. In every section the
// entries are in strictly ascending key order (stem; lo, hi, spec) and
// every buffer is non-empty — what Marshal writes, and all the loader
// accepts, so a repeated entry cannot silently replace an earlier one.
// An index that omits the optional section simply lacks the feature; an
// unknown section id is rejected loudly instead of being misparsed.
// Concept block tables are not persisted: they are built from section
// 1 on first use (Compact.ConceptBlocks).
//
// Four shapes older code could write are rejected, each with an
// ErrCorrupt-wrapped error naming what was seen: section 2 (per-concept
// doc-max metadata, a representation the engine no longer serves),
// section 3 (concept block tables in a per-integer varint codec),
// section 4 (registered concept block tables, a second copy of what
// section 1 holds: rebuild such a file from its corpus), and unframed
// input (the pre-framing layout, which carried no checksums).

// Framing constants. The version byte lets the layout evolve without
// breaking old readers loudly: an unknown version is rejected with a
// precise error instead of being misparsed.
const (
	frameMagic   = "BJIX"
	frameVersion = 1

	secPostings = 1 // posting payload: docs header + term table
	secPairs    = 5 // optional precomputed concept-pair postings
)

// retiredSections names the section ids older writers used that this
// reader refuses.
var retiredSections = map[byte]string{
	2: "concept max-score metadata",
	3: "varint concept block tables",
	4: "registered concept block tables; tables are built from the postings now",
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
// form.
func (c *Compact) Marshal() []byte {
	type section struct {
		id      byte
		payload []byte
	}
	sections := []section{{secPostings, c.marshalPostings()}}
	if len(c.pairs) > 0 {
		sections = append(sections, section{secPairs, appendEntries(nil, c.pairs, PairKey.compare,
			func(b []byte, k PairKey) []byte {
				b = binary.LittleEndian.AppendUint64(b, k.Lo)
				b = binary.LittleEndian.AppendUint64(b, k.Hi)
				return binary.LittleEndian.AppendUint64(b, k.Spec)
			})})
	}
	size := 32 // magic, version, and per section id, length, checksum
	for _, s := range sections {
		size += len(s.payload)
	}
	buf := append(make([]byte, 0, size), frameMagic...)
	buf = append(buf, frameVersion)
	buf = binary.AppendUvarint(buf, uint64(len(sections)))
	for _, s := range sections {
		buf = appendSection(buf, s.id, s.payload)
	}
	return buf
}

// marshalPostings builds the posting payload (section 1).
func (c *Compact) marshalPostings() []byte {
	buf := binary.AppendUvarint(nil, uint64(c.docs))
	return appendEntries(buf, c.postings, strings.Compare, func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	})
}

// appendSection frames one payload: id, length, bytes, CRC32-C.
func appendSection(buf []byte, id byte, payload []byte) []byte {
	buf = append(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// appendEntries appends a keyed entry list: varint(#entries), then per
// entry, in ascending key order, the key (putKey), varint(len) and the
// buffer.
func appendEntries[K comparable](buf []byte, m map[K][]byte, cmp func(K, K) int, putKey func([]byte, K) []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for _, k := range slices.SortedFunc(maps.Keys(m), cmp) {
		buf = putKey(buf, k)
		buf = binary.AppendUvarint(buf, uint64(len(m[k])))
		buf = append(buf, m[k]...)
	}
	return buf
}

// LoadCompact deserializes a Marshal buffer, verifying the framing —
// magic, version, section structure, per-section checksums, no
// trailing bytes — and eagerly validating every posting list and pair
// list, so corrupt or adversarial bytes fail here
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
	if n <= 0 || nsec == 0 || nsec > secPairs {
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
		if id <= prevID || id > secPairs {
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
		if err := sectionParsers[id](c, payload); err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, id, err)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b))
	}
	return c, nil
}

// sectionParsers decode the sections this reader accepts into a
// Compact: every id from 1 to secPairs that is not retired.
var sectionParsers = map[byte]func(*Compact, []byte) error{
	secPostings: parsePostings,
	secPairs:    parsePairs,
}

// parsePostings decodes the posting payload — docs header plus term
// table — validating every posting list eagerly so a corrupt load
// fails here, not at query time.
func parsePostings(c *Compact, b []byte) (err error) {
	docs, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("corrupt docs header")
	}
	c.docs = int(docs)
	readStem := func(b []byte) (string, []byte, bool) {
		slen, n := binary.Uvarint(b)
		if n <= 0 || slen > uint64(len(b[n:])) {
			return "", nil, false
		}
		return string(b[n : n+int(slen)]), b[n+int(slen):], true
	}
	// An entry takes at least 2 bytes: stem length, posting length.
	c.postings, err = parseEntries(b[n:], 2, readStem, strings.Compare, func(stem string, buf []byte) error {
		if _, err := DecodePostings(buf); err != nil {
			return fmt.Errorf("invalid postings for %q: %v", stem, err)
		}
		return nil
	})
	return err
}

// parsePairs decodes the pair-list payload into c.pairs. Every block
// of every pair list is fully decoded here — the same eager-validation
// stance as postings — so ConceptPairs can treat decode failure as
// memory corruption.
func parsePairs(c *Compact, b []byte) (err error) {
	readKey := func(b []byte) (PairKey, []byte, bool) {
		if len(b) < 24 {
			return PairKey{}, nil, false
		}
		key := PairKey{
			Lo:   binary.LittleEndian.Uint64(b),
			Hi:   binary.LittleEndian.Uint64(b[8:]),
			Spec: binary.LittleEndian.Uint64(b[16:]),
		}
		return key, b[24:], true
	}
	// An entry takes at least 25 bytes: three key words, length.
	c.pairs, err = parseEntries(b, 25, readKey, PairKey.compare, func(key PairKey, buf []byte) error {
		if key.Lo > key.Hi {
			return fmt.Errorf("pair key not in canonical order")
		}
		pt, err := DecodePairs(buf)
		if err == nil {
			err = pt.Validate()
		}
		if err != nil {
			return fmt.Errorf("invalid pair list: %v", err)
		}
		return nil
	})
	return err
}

// parseEntries parses an appendEntries list into a map, checking each
// entry's key and a copy of its buffer with check first. Keys must be
// strictly ascending under cmp and buffers non-empty, and the list must
// fill b. minEntry is the fewest bytes an entry can take: it bounds the
// count before anything is allocated.
func parseEntries[K comparable](b []byte, minEntry int, readKey func([]byte) (K, []byte, bool), cmp func(K, K) int, check func(K, []byte) error) (map[K][]byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("corrupt entry count")
	}
	b = b[n:]
	if count > uint64(len(b)/minEntry) {
		return nil, fmt.Errorf("entry count %d exceeds buffer", count)
	}
	m := make(map[K][]byte, count)
	var prev K
	for i := uint64(0); i < count; i++ {
		key, rest, ok := readKey(b)
		if !ok {
			return nil, fmt.Errorf("entry %d: truncated key", i)
		}
		if i > 0 && cmp(prev, key) >= 0 {
			return nil, fmt.Errorf("entry %d: key %v not strictly ascending", i, key)
		}
		blen, n := binary.Uvarint(rest)
		if n <= 0 || blen > uint64(len(rest[n:])) {
			return nil, fmt.Errorf("entry %d: truncated buffer", i)
		}
		if blen == 0 {
			return nil, fmt.Errorf("entry %d: empty buffer", i)
		}
		end := n + int(blen)
		buf := bytes.Clone(rest[n:end])
		if err := check(key, buf); err != nil {
			return nil, fmt.Errorf("entry %d: %v", i, err)
		}
		m[key] = buf
		b, prev = rest[end:], key
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return m, nil
}
