package index

import (
	"errors"
	"strings"
	"testing"
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

// framedTestIndex builds a small index with block-partitioned concept
// postings in both layouts, so its Marshal carries sections 1, 3 and 4.
func framedTestIndex(t *testing.T) *Compact {
	t.Helper()
	ix := New()
	ix.AddText(0, "lenovo partners with the nba in a new deal")
	ix.AddText(1, "dell announced a partnership with the olympics")
	ix.AddText(3, "the nba finals drew a record basketball audience")
	c := ix.Compact()
	c.AddConceptBlocksSized(Concept{"lenovo": 1, "dell": 0.9}, 2)
	c.AddConceptBlocks(Concept{"nba": 1, "olympics": 0.8, "basketball": 0.7})
	return c
}

// TestMarshalIsFramed pins the on-disk format: magic, version, and the
// block sections when tables are registered.
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
	if loaded.ConceptBlocksCount() != c.ConceptBlocksCount() {
		t.Fatalf("blocks count %d, want %d", loaded.ConceptBlocksCount(), c.ConceptBlocksCount())
	}
	bt, ok := loaded.ConceptBlocks(Concept{"lenovo": 1, "dell": 0.9})
	if !ok || bt.NumBlocks() == 0 {
		t.Fatalf("concept blocks did not survive the round trip: ok=%v", ok)
	}
	want, _ := c.ConceptBlocks(Concept{"lenovo": 1, "dell": 0.9})
	if bt.NumBlocks() != want.NumBlocks() {
		t.Fatalf("blocks changed across the round trip: %d vs %d", bt.NumBlocks(), want.NumBlocks())
	}
}

// TestLoadCompactLegacy pins that the two retired input shapes are
// refused, each with an ErrCorrupt-wrapped error naming what was seen:
// the unframed pre-framing layout (it carries no checksums, and
// LoadCompact is what /swapindex feeds wire bytes to) and a framed
// file carrying section 2, the doc-max metadata nothing serves anymore.
func TestLoadCompactLegacy(t *testing.T) {
	unframed, section2 := RetiredShapesForTest(framedTestIndex(t))
	for _, tc := range []struct {
		name, names string
		b           []byte
	}{
		{"unframed", "missing magic", unframed},
		{"section 2", "section 2", section2},
	} {
		_, err := LoadCompact(tc.b)
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: err = %v, want ErrCorrupt naming %q", tc.name, err, tc.names)
		}
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
