package index

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bestjoin/internal/match"
)

// FuzzDecodePostings ensures posting decompression never panics on
// arbitrary bytes and that accepted inputs round-trip.
func FuzzDecodePostings(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodePostings([]Posting{{Doc: 0, Pos: 0}}))
	f.Add(EncodePostings([]Posting{{Doc: 1, Pos: 3}, {Doc: 1, Pos: 9}, {Doc: 7, Pos: 2}}))
	// Regression input for the bounded-delta fix: a doc delta of
	// MaxUint64 used to wrap the accumulator negative.
	overflow := binary.AppendUvarint(nil, 1)
	overflow = binary.AppendUvarint(overflow, math.MaxUint64)
	overflow = binary.AppendUvarint(overflow, 1)
	f.Add(binary.AppendUvarint(overflow, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodePostings(data)
		if err != nil {
			return
		}
		// Accepted postings must be (doc, pos)-sorted and in range —
		// the invariant the overflow bug used to break.
		for i, p := range ps {
			if p.Doc < 0 || p.Doc > MaxDocID || p.Pos < 0 || p.Pos > MaxPosition {
				t.Fatalf("posting %d out of range: %+v", i, p)
			}
			if i > 0 {
				prev := ps[i-1]
				if p.Doc < prev.Doc || (p.Doc == prev.Doc && p.Pos < prev.Pos) {
					t.Fatalf("postings out of order at %d: %+v then %+v", i, prev, p)
				}
			}
		}
		again, err := DecodePostings(EncodePostings(ps))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(ps) {
			t.Fatalf("round trip changed posting count")
		}
		for i := range ps {
			if ps[i] != again[i] {
				t.Fatalf("round trip changed posting %d", i)
			}
		}
	})
}

// addUnflaggedSeeds seeds a block fuzz target with valid unflagged
// tables and the crafted corruptions of one: a palette count, then a
// block count behind a minimal valid palette, of MaxUint64 (both must
// be bounded before they can drive a huge allocation); NaN palette
// bits (rejected, never compared against); and a control byte
// promising four 4-byte values before a truncated buffer (the group
// decoder's bounds check, not a slice panic, must reject it).
func addUnflaggedSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeBlocks([]int{0}, []match.List{{{Loc: 0, Score: 1}}}, 0))
	f.Add(EncodeBlocks(
		[]int{1, 2, 5, 9},
		[]match.List{
			{{Loc: 3, Score: 0.5}, {Loc: 7, Score: 1.0}},
			{{Loc: 1, Score: 0.5}},
			{{Loc: 2, Score: 1.0}},
			{{Loc: 4, Score: -0.25}, {Loc: 5, Score: 0.5}},
		}, 2))
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	// Clipped: the two seeds appended to it must not share its spare capacity.
	palette := slices.Clip(binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, 1), math.Float64bits(1)))
	f.Add(binary.AppendUvarint(palette, math.MaxUint64))
	f.Add(binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, 1), math.Float64bits(math.NaN())))
	f.Add(append(binary.AppendUvarint(palette, 1), 0xff, 0x01))
}

// FuzzDecodeBlocks ensures the concept block decode path never panics
// on arbitrary bytes, that accepted tables respect every documented
// invariant (ascending disjoint block ranges, bounded ids and
// positions, finite ascending palette, truthful block maxima — the
// soundness-critical one for block-max pruning), and that accepted
// content round-trips through EncodeBlocks — always, since the wide
// escape carries any value a table can hold.
func FuzzDecodeBlocks(f *testing.F) {
	addUnflaggedSeeds(f)
	// Flagged tables: escapes in every kind of stream; values at
	// MaxDocID/MaxPosition; behind the flag, a control byte promising
	// four 4-byte values before a truncated buffer.
	docs, lists := wideInput()
	f.Add(EncodeBlocks(docs, lists, 2))
	f.Add(EncodeBlocks([]int{MaxDocID}, []match.List{{{Loc: MaxPosition, Score: 1}}}, 0))
	trunc := binary.AppendUvarint([]byte{0}, 1)
	trunc = binary.LittleEndian.AppendUint64(trunc, math.Float64bits(1))
	f.Add(append(binary.AppendUvarint(trunc, 1), 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		bt, err := DecodeBlocks(data)
		if err != nil || bt == nil {
			return
		}
		prevLast := -1
		for i := range bt.Infos {
			info := bt.Infos[i]
			if info.FirstDoc <= prevLast || info.FirstDoc > info.LastDoc || info.LastDoc > MaxDocID {
				t.Fatalf("block %d range invalid: %+v after last %d", i, info, prevLast)
			}
			prevLast = info.LastDoc
			d, l, err := bt.DecodeBlock(i)
			if err != nil {
				continue // skip-table ok but payload hostile: rejected, fine
			}
			max := math.Inf(-1)
			prevDoc := info.FirstDoc - 1
			for j := range d {
				if d[j] <= prevDoc || d[j] > info.LastDoc {
					t.Fatalf("block %d doc %d out of order or range", i, d[j])
				}
				prevDoc = d[j]
				prevPos := -1
				for _, m := range l[j] {
					if m.Loc <= prevPos || m.Loc > MaxPosition {
						t.Fatalf("block %d doc %d positions invalid", i, d[j])
					}
					prevPos = m.Loc
					if math.IsNaN(m.Score) || math.IsInf(m.Score, 0) {
						t.Fatalf("non-finite score accepted")
					}
					if m.Score > max {
						max = m.Score
					}
				}
			}
			if max != info.MaxScore {
				t.Fatalf("block %d MaxScore %v disagrees with content max %v", i, info.MaxScore, max)
			}
		}
		docs, lists, err := bt.decodeAll()
		if err != nil {
			return // some block rejected above: nothing to round-trip
		}
		// Fully valid tables round-trip through the encoder.
		again, err := DecodeBlocks(EncodeBlocks(docs, lists, BlockSize))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		docsAgain, listsAgain, err := again.decodeAll()
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(docsAgain, docs) || !reflect.DeepEqual(listsAgain, lists) {
			t.Fatalf("round trip changed the table")
		}
	})
}

// FuzzDecodeBatch drives arbitrary bytes through the batched,
// per-block decode paths the engine takes, seeded with unflagged
// tables. Every block that fully decodes must list the same documents
// through DecodeDocs, the directory-only decode candidate generation
// relies on; and fully valid content whose ids and positions all stay
// below 2^32−1 must re-encode unflagged — lanes only, the bytes every
// table without a wide value has always had. (FuzzDecodeBlocks holds
// the re-encoding to an exact round trip.)
func FuzzDecodeBatch(f *testing.F) {
	addUnflaggedSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		bt, err := DecodeBlocks(data)
		if err != nil || bt == nil {
			return
		}
		for i := range bt.Infos {
			full, _, err := bt.DecodeBlock(i)
			if err != nil {
				continue
			}
			dir, err := bt.DecodeDocs(i)
			if err != nil || !reflect.DeepEqual(dir, full) {
				t.Fatalf("block %d: DecodeDocs %v (%v), DecodeBlock %v", i, dir, err, full)
			}
		}
		docs, lists, err := bt.decodeAll()
		if err != nil {
			return // some block rejected: nothing to re-encode
		}
		narrow := docs[len(docs)-1] < escapeLane
		for _, l := range lists {
			narrow = narrow && l[len(l)-1].Loc < escapeLane
		}
		if narrow && EncodeBlocks(docs, lists, BlockSize)[0] == 0 {
			t.Fatal("content below 2^32−1 re-encoded flagged")
		}
	})
}

// FuzzBlockDocs holds the per-document decode to DecodeBlock on
// arbitrary bytes, seeded with unflagged and flagged tables: wherever
// DecodeBlock accepts a block, DecodeBlockDocs lists the same
// documents and every DecodeDoc succeeds with that document's list,
// bit for bit; wherever it does not, a per-document decode may error
// or succeed, but what it returns is still well formed.
func FuzzBlockDocs(f *testing.F) {
	addUnflaggedSeeds(f)
	docs, lists := wideInput()
	f.Add(EncodeBlocks(docs, lists, 2))
	f.Add(EncodeBlocks(docs, lists, 0))
	f.Add(EncodeBlocks([]int{MaxDocID}, []match.List{{{Loc: MaxPosition, Score: 1}}}, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		bt, err := DecodeBlocks(data)
		if err != nil || bt == nil {
			return
		}
		checkBlockDocs(t, bt)
	})
}

// addRejectedShapes seeds a loader fuzz target with every shape the
// loaders refuse — unframed, and the retired sections 2, 3 and 4 — in
// a fixed order.
func addRejectedShapes(f *testing.F, c *Compact) {
	shapes := RejectedShapesForTest(c)
	for _, name := range slices.Sorted(maps.Keys(shapes)) {
		f.Add(shapes[name])
	}
}

// FuzzLoadCompact ensures index deserialization never panics, and
// that nothing without the framing magic is ever accepted.
func FuzzLoadCompact(f *testing.F) {
	ix := New()
	ix.AddText(0, "alpha beta gamma")
	f.Add(ix.Compact().Marshal())
	addRejectedShapes(f, ix.Compact())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCompact(data)
		if err != nil {
			return
		}
		if !strings.HasPrefix(string(data), frameMagic) {
			t.Fatal("unframed input accepted")
		}
		// A loaded index must be queryable without panicking.
		_ = c.Postings("alpha")
		_ = c.Docs()
	})
}

// FuzzLoadFile drives arbitrary bytes through the checksummed file
// loader: it must never panic, and whatever it accepts must re-marshal
// to bytes it accepts again (load∘save is a fixpoint).
func FuzzLoadFile(f *testing.F) {
	ix := New()
	ix.AddText(0, "alpha beta gamma")
	ix.AddText(2, "beta delta")
	c := ix.Compact()
	f.Add(c.Marshal())
	addRejectedShapes(f, c)
	f.Add([]byte(frameMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.idx")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Skip()
		}
		loaded, err := LoadFile(path)
		if err != nil {
			return
		}
		// Accepted files must round-trip through SaveFile/LoadFile.
		again := filepath.Join(dir, "again.idx")
		if err := loaded.SaveFile(again); err != nil {
			t.Fatalf("re-save of accepted index failed: %v", err)
		}
		re, err := LoadFile(again)
		if err != nil {
			t.Fatalf("re-load of accepted index failed: %v", err)
		}
		if !bytes.Equal(re.Marshal(), loaded.Marshal()) {
			t.Fatal("round trip changed the index")
		}
	})
}

// FuzzDecodePairs drives arbitrary bytes through the pair-posting
// decoder: it must never panic, every accepted skip table must carry
// ascending disjoint bounded block ranges, every accepted block must
// hold ascending in-range documents with finite scores and bounded
// witness locations and a truthful block max, and fully valid tables
// must round-trip through the encoder.
func FuzzDecodePairs(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodePairs([]PairEntry{
		{Doc: 0, OK: true, Score: 1, W0: match.Match{Loc: 0, Score: 1}, W1: match.Match{Loc: 1, Score: 0.5}},
	}, 0))
	f.Add(EncodePairs(testPairEntries(), 3))
	f.Add(EncodePairs(testPairEntries(), 128))
	// Crafted overflow: a block count of MaxUint64 must be bounded
	// before it can drive a huge allocation.
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	// NaN block max: must be rejected, never compared against.
	nan := binary.AppendUvarint(nil, 1)
	nan = binary.AppendUvarint(nan, 1)
	nan = binary.AppendUvarint(nan, 0)
	nan = binary.AppendUvarint(nan, 1)
	f.Add(binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.NaN())))
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := DecodePairs(data)
		if err != nil || pt == nil {
			return
		}
		prevLast := -1
		var entries []PairEntry
		for i := range pt.Infos {
			info := pt.Infos[i]
			if info.FirstDoc <= prevLast || info.FirstDoc > info.LastDoc || info.LastDoc > MaxDocID {
				t.Fatalf("block %d range invalid: %+v after last %d", i, info, prevLast)
			}
			prevLast = info.LastDoc
			es, err := pt.DecodeBlock(i)
			if err != nil {
				continue // skip-table ok but payload hostile: rejected, fine
			}
			max := math.Inf(-1)
			prevDoc := info.FirstDoc - 1
			for _, ent := range es {
				if ent.Doc <= prevDoc || ent.Doc > info.LastDoc {
					t.Fatalf("block %d doc %d out of order or range", i, ent.Doc)
				}
				prevDoc = ent.Doc
				if !ent.OK {
					continue
				}
				if math.IsNaN(ent.Score) || math.IsInf(ent.Score, 0) {
					t.Fatalf("non-finite pair score accepted")
				}
				for _, w := range []match.Match{ent.W0, ent.W1} {
					if w.Loc < 0 || w.Loc > MaxPosition || math.IsNaN(w.Score) || math.IsInf(w.Score, 0) {
						t.Fatalf("block %d witness %+v invalid", i, w)
					}
				}
				if ent.Score > max {
					max = ent.Score
				}
			}
			if max != info.MaxScore {
				t.Fatalf("block %d MaxScore %v disagrees with content max %v", i, info.MaxScore, max)
			}
			entries = append(entries, es...)
		}
		if pt.Validate() != nil {
			return // some block rejected above: no round-trip contract
		}
		// Fully valid tables must round-trip through the encoder.
		again, err := DecodePairs(EncodePairs(entries, BlockSize))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		var out []PairEntry
		for i := range again.Infos {
			es, err := again.DecodeBlock(i)
			if err != nil {
				t.Fatalf("re-decode block %d: %v", i, err)
			}
			out = append(out, es...)
		}
		if !entriesEqual(out, entries) {
			t.Fatalf("round trip changed pair entries")
		}
	})
}
