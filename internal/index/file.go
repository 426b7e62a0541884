package index

import (
	"fmt"
	"os"
	"path/filepath"
)

// On-disk persistence with crash safety. SaveFile never leaves a
// half-written index at the destination path: the bytes go to a
// temporary file in the same directory, are fsynced, and only then
// renamed over the target (rename within one directory is atomic on
// POSIX filesystems), with the directory fsynced afterwards so the
// rename itself survives a crash. A reader therefore sees either the
// old complete index or the new complete index, never a torn one —
// and if the disk lies anyway, the CRC32-C section framing
// (persist.go) catches it at LoadFile time.

// SaveFile atomically writes the framed, checksummed index to path:
// temp file in the same directory → write → fsync → rename → fsync
// directory. On error the temporary file is removed and any existing
// file at path is left untouched.
func (c *Compact) SaveFile(path string) error {
	data := c.Marshal()
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("index: save %s: %w", path, err)
	}
	tmp := f.Name()
	fail := func(step string, err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("index: save %s: %s: %w", path, step, err)
	}
	if _, err := f.Write(data); err != nil {
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		return fail("fsync", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: save %s: close: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: save %s: rename: %w", path, err)
	}
	// Persist the rename: without the directory fsync a crash can
	// roll the directory entry back to the old file (fine) or to a
	// state where neither name exists (not fine).
	if d, err := os.Open(dir); err == nil {
		defer d.Close()
		if err := d.Sync(); err != nil {
			return fmt.Errorf("index: save %s: sync dir: %w", path, err)
		}
	}
	return nil
}

// LoadFile reads and verifies an index written by SaveFile. The file
// must be in the framed format: bad magic, truncation, and bit-rot
// all fail with an error wrapping ErrCorrupt (checksum mismatch and
// friends) — corrupt bytes are never served as query data.
func LoadFile(path string) (*Compact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: load %s: %w", path, err)
	}
	c, err := LoadCompact(b)
	if err != nil {
		return nil, fmt.Errorf("index: load %s: %w", path, err)
	}
	return c, nil
}
