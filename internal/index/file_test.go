package index

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadFileRoundTrip(t *testing.T) {
	c := framedTestIndex(t)
	path := filepath.Join(t.TempDir(), "corpus.idx")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Docs() != c.Docs() {
		t.Fatalf("round trip lost data: docs %d/%d", loaded.Docs(), c.Docs())
	}
	for _, word := range []string{"lenovo", "nba", "basketball"} {
		a, b := c.Postings(word), loaded.Postings(word)
		if len(a) != len(b) {
			t.Fatalf("%q: loaded %v, original %v", word, b, a)
		}
	}
}

// TestSaveFileLeavesNoTempFiles pins the cleanup contract: after a
// successful save the directory holds exactly the target file.
func TestSaveFileLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.idx")
	c := framedTestIndex(t)
	for i := 0; i < 3; i++ { // overwrites must be as clean as creates
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "corpus.idx" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after save: %v", names)
	}
}

// TestSaveFileOverwriteIsAtomic simulates the crash-safety property a
// test can observe without killing the process: saving over an
// existing index either fully replaces it or (on failure) leaves the
// old file intact — here, a save into an unwritable directory.
func TestSaveFileOverwriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.idx")
	old := framedTestIndex(t)
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if os.Getuid() != 0 { // root ignores directory permissions
		if err := os.Chmod(dir, 0o500); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o700)
		ix := New()
		ix.AddText(0, "different corpus entirely")
		if err := ix.Compact().SaveFile(path); err == nil {
			t.Fatal("save into read-only directory succeeded")
		}
		os.Chmod(dir, 0o700)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("old index damaged by failed save: %v", err)
	}
	if loaded.Docs() != old.Docs() {
		t.Fatalf("old index replaced by failed save: docs %d, want %d", loaded.Docs(), old.Docs())
	}
}

// TestLoadFileRejectsTruncation is the torn-write acceptance test:
// every prefix of a saved index must be rejected with ErrCorrupt, not
// served as a smaller index.
func TestLoadFileRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.idx")
	if err := framedTestIndex(t).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.idx")
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(torn, full[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(torn)
		if err == nil {
			t.Fatalf("truncation at %d loaded without error", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

// TestLoadFileRejectsBitRot flips one bit at several offsets of a
// saved index; each must fail with ErrCorrupt. (The exhaustive sweep
// lives in TestFramedRejectsEveryBitFlip; this pins the file layer.)
func TestLoadFileRejectsBitRot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.idx")
	if err := framedTestIndex(t).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotten := filepath.Join(dir, "rotten.idx")
	for _, at := range []int{0, 4, 5, len(full) / 2, len(full) - 1} {
		mut := append([]byte(nil), full...)
		mut[at] ^= 0x10
		if err := os.WriteFile(rotten, mut, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(rotten)
		if err == nil {
			t.Fatalf("bit rot at byte %d loaded without error", at)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit rot at %d: error %v does not wrap ErrCorrupt", at, err)
		}
	}
}

// TestLoadFileRejectsLegacyBytes pins that the file layer refuses
// every shape LoadCompact does — a legacy (unframed) buffer on disk
// above all, since a file without checksums cannot be trusted against
// bit-rot — with an ErrCorrupt naming what it saw.
func TestLoadFileRejectsLegacyBytes(t *testing.T) {
	for names, b := range RejectedShapesForTest(framedTestIndex(t)) {
		path := filepath.Join(t.TempDir(), "legacy.idx")
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), names) {
			t.Fatalf("%s file: err = %v", names, err)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	_, err := LoadFile(filepath.Join(t.TempDir(), "nope.idx"))
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: err = %v (must be an I/O error, not corruption)", err)
	}
}
