package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bestjoin/internal/text"
)

func TestMarshalLoadRoundTrip(t *testing.T) {
	ix := New()
	ix.AddText(0, "lenovo partners with the nba in a new deal")
	ix.AddText(1, "dell announced a partnership with the olympics")
	ix.AddText(5, "sparse doc id space works too")
	c := ix.Compact()

	loaded, err := LoadCompact(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Docs() != c.Docs() {
		t.Errorf("Docs = %d, want %d", loaded.Docs(), c.Docs())
	}
	for _, word := range []string{"lenovo", "dell", "partnership", "sparse", "missing"} {
		a, b := c.Postings(word), loaded.Postings(word)
		if len(a) != len(b) {
			t.Fatalf("%q: loaded %v, original %v", word, b, a)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: loaded %v, original %v", word, b, a)
			}
		}
	}
}

func TestMarshalDeterministic(t *testing.T) {
	ix := New()
	ix.AddText(0, "alpha beta gamma delta epsilon zeta")
	c := ix.Compact()
	a, b := c.Marshal(), c.Marshal()
	if string(a) != string(b) {
		t.Error("Marshal is not deterministic")
	}
}

func TestLoadCompactCorrupt(t *testing.T) {
	ix := New()
	ix.AddText(0, "some words here")
	valid := ix.Compact().Marshal()
	for cut := 1; cut < len(valid); cut++ {
		if _, err := LoadCompact(valid[:cut]); err == nil {
			t.Errorf("truncation at %d loaded without error", cut)
		}
	}
	if _, err := LoadCompact(append(append([]byte{}, valid...), 9)); err == nil {
		t.Error("trailing byte loaded without error")
	}
}

// framedTestIndex builds a small index; its Marshal carries section 1.
func framedTestIndex(t *testing.T) *Compact {
	t.Helper()
	ix := New()
	ix.AddText(0, "lenovo partners with the nba in a new deal")
	ix.AddText(1, "dell announced a partnership with the olympics")
	ix.AddText(3, "the nba finals drew a record basketball audience")
	return ix.Compact()
}

// TestMarshalIsFramed pins the on-disk format: magic, version, and a
// loaded index that builds the same block tables as the original.
func TestMarshalIsFramed(t *testing.T) {
	c := framedTestIndex(t)
	b := c.Marshal()
	if !strings.HasPrefix(string(b), frameMagic) {
		t.Fatal("Marshal output does not start with the framing magic")
	}
	if b[4] != frameVersion {
		t.Fatalf("version byte %d, want %d", b[4], frameVersion)
	}
	loaded, err := LoadCompact(b)
	if err != nil {
		t.Fatal(err)
	}
	concept := Concept{"lenovo": 1, "dell": 0.9}
	bt, _ := loaded.ConceptBlocks(concept)
	want, _ := c.ConceptBlocks(concept)
	if bt.NumBlocks() == 0 || !reflect.DeepEqual(bt, want) {
		t.Fatalf("loaded index builds %+v, original %+v", bt, want)
	}
}

// TestLoadCompactLegacy pins that every refused input shape fails
// with an ErrCorrupt-wrapped error naming what was seen: the unframed
// pre-framing layout (it carries no checksums, and LoadCompact is what
// /swapindex feeds wire bytes to), and a framed file carrying section
// 2 (the doc-max metadata nothing serves anymore), section 3 (the
// retired varint block codec), section 4 (registered block tables,
// which are built from the postings now) or section 5 (pair lists,
// which no query is served from).
func TestLoadCompactLegacy(t *testing.T) {
	for names, b := range RejectedShapesForTest(framedTestIndex(t)) {
		_, err := LoadCompact(b)
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), names) {
			t.Errorf("%s: err = %v, want ErrCorrupt naming %q", names, err, names)
		}
	}
}

// TestLoadCompactRejectsMisorderedEntries pins the entry discipline of
// the posting section: stems strictly ascending — the order Marshal
// writes — and every buffer non-empty, or ErrCorrupt naming the section
// and the entry. A repeated stem would otherwise load with the later
// entry silently replacing the earlier one.
func TestLoadCompactRejectsMisorderedEntries(t *testing.T) {
	type entry struct{ key, buf []byte }
	entries := func(es ...entry) []byte {
		b := binary.AppendUvarint(nil, uint64(len(es)))
		for _, e := range es {
			b = append(append(b, e.key...), binary.AppendUvarint(nil, uint64(len(e.buf)))...)
			b = append(b, e.buf...)
		}
		return b
	}
	stem := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	postings := EncodePostings([]Posting{{Doc: 0, Pos: 1}})
	for _, tc := range []struct {
		name    string
		payload []byte
		names   string
	}{
		{"repeated stem", entries(entry{stem("a"), postings}, entry{stem("a"), postings}), "section 1: entry 1"},
		{"descending stems", entries(entry{stem("b"), postings}, entry{stem("a"), postings}), "section 1: entry 1"},
		{"empty postings", entries(entry{stem("a"), nil}), "section 1: entry 0"},
	} {
		b := binary.AppendUvarint(append([]byte(frameMagic), frameVersion), 1)
		b = appendSection(b, secPostings, append(binary.AppendUvarint(nil, 1), tc.payload...))
		_, err := LoadCompact(b)
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: err = %v, want ErrCorrupt naming %q", tc.name, err, tc.names)
		}
	}
}

// TestPersistBatchSectionRoundTrip pins that concept data travels as
// its postings: Marshal writes section 1 alone, and the concept lists a
// loaded index merges — positions below 2^32 or past it — equal the
// original's.
func TestPersistBatchSectionRoundTrip(t *testing.T) {
	c := blocksTestCompact(t, 80, 5)
	// Positions past 2^32.
	c.setPostings(text.Stem("wide"), EncodePostings([]Posting{{Doc: 3, Pos: 1 << 33}, {Doc: 4, Pos: MaxPosition}}))
	b := c.Marshal()
	// Frame: magic, version, section count, then (id, length, payload,
	// checksum) per section.
	var ids []byte
	rest := b[len(frameMagic)+2:]
	for len(rest) > 0 {
		n, k := binary.Uvarint(rest[1:])
		ids = append(ids, rest[0])
		rest = rest[1+k+int(n)+4:]
	}
	if !bytes.Equal(ids, []byte{secPostings}) {
		t.Fatalf("section ids %v, want [1]", ids)
	}
	loaded, err := LoadCompact(b)
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	for _, cc := range []Concept{
		{text.Stem("river"): 1.0, text.Stem("bank"): 0.5},
		{text.Stem("stone"): 0.75},
		{"wide": 1, text.Stem("stone"): 0.5},
	} {
		got, _ := loaded.ConceptBlocks(cc)
		want, _ := c.ConceptBlocks(cc)
		if !reflect.DeepEqual(got, want) || got.NumBlocks() == 0 {
			t.Fatalf("concept %v: loaded index merges different lists", cc)
		}
	}
	if s, _ := loaded.Stem("wide"); s == nil || s.Pos(0) != 1<<33 || s.Pos(1) != MaxPosition {
		t.Fatal("positions past 2^32 are not held exactly")
	}
}

// TestMarshalBytesPinned pins the file format byte for byte: the
// SHA-256 of Marshal over a fixed corpus, followed by the Marshal of
// each piece of its 3-way Partition, and then the block-table buffer
// each of them encodes for four concepts. Every index saved before must
// stay readable, and every table without a wide value must still
// encode to the same bytes.
func TestMarshalBytesPinned(t *testing.T) {
	c := blocksTestCompact(t, 400, 7)
	h := sha256.New()
	h.Write(c.Marshal())
	shards, err := c.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		h.Write(s.Marshal())
	}
	for _, cc := range []Concept{
		{text.Stem("river"): 1.0, text.Stem("bank"): 0.5, text.Stem("water"): 0.25},
		{text.Stem("stone"): 0.75, text.Stem("bridge"): 0.6},
		{text.Stem("valley"): 1.0},
		{text.Stem("flood"): 0.9, text.Stem("delta"): 0.9, text.Stem("river"): 0.3},
	} {
		for _, ix := range append([]*Compact{c}, shards...) {
			docs, lists := ix.conceptDocLists(cc)
			h.Write(EncodeBlocks(docs, lists, 0))
		}
	}
	const want = "7f11e37ce6ecdbb685dc1f51618b0394bf0a5b124fa210ff7854c724a4fb8903"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("Marshal bytes moved: sha256 %s, want %s", got, want)
	}
}

// TestFramedRejectsEveryBitFlip is the bit-rot acceptance test:
// flipping any single bit of a framed index must make LoadCompact
// fail — the CRC32-C sections leave no byte unprotected except the
// frame structure itself, whose damage is caught structurally.
func TestFramedRejectsEveryBitFlip(t *testing.T) {
	valid := framedTestIndex(t).Marshal()
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 1 << bit
			if _, err := LoadCompact(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d loaded without error", i, bit)
			}
		}
	}
}

// TestFramedChecksumError pins that payload damage surfaces as a
// checksum error tagged ErrCorrupt, with the section identified.
func TestFramedChecksumError(t *testing.T) {
	valid := framedTestIndex(t).Marshal()
	// Flip a byte deep inside the posting payload (well past the
	// header) so the frame structure stays intact.
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 0x40
	_, err := LoadCompact(mut)
	if err == nil {
		t.Fatal("corrupt payload loaded")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error %q does not name the checksum", err)
	}
}

// TestFramedUnsupportedVersion pins the versioning story: a future
// format version is rejected loudly, not misparsed.
func TestFramedUnsupportedVersion(t *testing.T) {
	b := framedTestIndex(t).Marshal()
	b[4] = frameVersion + 1
	_, err := LoadCompact(b)
	if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("future version: err = %v", err)
	}
}
