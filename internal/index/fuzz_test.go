package index

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"os"
	"path/filepath"
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

// addPostingSeeds seeds a stem fuzz target with §1 posting buffers:
// valid ones at small, bucket-straddling, past-2^32 and maximal ids and
// positions, and the crafted edges of the decode — a repeated document
// run (doc delta 0) whose positions continue, and one whose positions
// restart (rejected); repeated positions within a run and a run of no
// positions; an absurd document count before no payload, and a
// position delta past MaxPosition.
func addPostingSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodePostings([]Posting{{Doc: 0, Pos: 0}}))
	f.Add(EncodePostings([]Posting{{Doc: 1, Pos: 3}, {Doc: 1, Pos: 9}, {Doc: 7, Pos: 2}}))
	f.Add(EncodePostings([]Posting{{Doc: 2, Pos: 503}, {Doc: 2, Pos: 504}, {Doc: 2, Pos: 1 << 20}}))
	f.Add(EncodePostings([]Posting{{Doc: 3, Pos: 1<<32 - 1}, {Doc: 3, Pos: 1 << 32}, {Doc: 1 << 33, Pos: 4}}))
	f.Add(EncodePostings([]Posting{{Doc: MaxDocID, Pos: MaxPosition}}))
	f.Add([]byte{2, 5, 1, 3, 0, 1, 4})
	f.Add([]byte{2, 5, 1, 3, 0, 1, 2})
	f.Add([]byte{2, 1, 3, 4, 0, 0, 2, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(binary.AppendUvarint([]byte{1, 0, 1}, MaxPosition+1))
}

// FuzzStemArrays drives arbitrary §1 posting bytes through the stem
// decode the query path reads: it must never panic, and it either
// fails or yields arrays listing exactly DecodePostings' postings —
// each document once, with at least one position and the location
// mask of its positions — failing exactly when DecodePostings does.
// Seek finds every document from any earlier index.
func FuzzStemArrays(f *testing.F) {
	addPostingSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeStem(data)
		want, werr := DecodePostings(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decodeStem error %v, DecodePostings error %v", err, werr)
		}
		if err != nil {
			return
		}
		if got := flattenStem(s); !slices.Equal(got, want) {
			t.Fatalf("arrays %v, postings %v", got, want)
		}
		ids := stemDocs(s)
		if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
			t.Fatalf("documents not strictly ascending: %v", ids)
		}
		for i, d := range ids {
			if s.Seek(0, d) != i || s.Seek(i, d) != i || s.Seek(0, d+1) != i+1 {
				t.Fatalf("Seek disagrees with document %d at %d", d, i)
			}
		}
	})
}

// fuzzConceptLists holds a concept's merged lists on its first 16
// documents to Compact.ConceptList, bit for bit. (ConceptList decodes
// every posting per document: a prefix keeps a many-document input
// fast.)
func fuzzConceptLists(t *testing.T, c *Compact, concept Concept, docs []int, lists []match.List) {
	t.Helper()
	for i, d := range docs[:min(len(docs), 16)] {
		if ref := c.ConceptList(d, concept); !slices.Equal(lists[i], ref) {
			t.Fatalf("doc %d: merged %v, ConceptList %v", d, lists[i], ref)
		}
	}
}

// FuzzDecodeBlocks drives arbitrary §1 posting bytes through the
// ConceptBlocks view of a concept over them: corrupt bytes panic (as
// Compact.Postings does) exactly when the stem decode fails; accepted
// bytes give ranges of at most BlockSize documents, ascending and
// disjoint, every document within MaxDocID with a non-empty list of
// strictly ascending positions within MaxPosition at the concept's
// weight — the stem's documents, in order, with Compact.ConceptList's
// lists. (The name is that of the block codec the view replaces.)
func FuzzDecodeBlocks(f *testing.F) {
	addPostingSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeStem(data)
		c := New().Compact()
		c.setPostings("alpha", data)
		concept := Concept{"alpha": 0.5}
		var bt *BlockTable
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			bt, _ = c.ConceptBlocks(concept)
			return false
		}()
		if panicked != (err != nil) {
			t.Fatalf("view panicked %v, stem decode error %v", panicked, err)
		}
		if err != nil {
			return
		}
		if n := s.Len(); bt.NumBlocks() != (n+BlockSize-1)/BlockSize {
			t.Fatalf("%d ranges over %d documents", bt.NumBlocks(), n)
		}
		var docs []int
		var lists []match.List
		for i := 0; i < bt.NumBlocks(); i++ {
			d, l, err := bt.DecodeBlock(i)
			if err != nil || len(d) == 0 || len(d) > BlockSize || len(d) != len(l) {
				t.Fatalf("range %d: %d documents, %d lists, %v", i, len(d), len(l), err)
			}
			docs, lists = append(docs, d...), append(lists, l...)
		}
		for i, d := range docs {
			if d < 0 || d > MaxDocID || i > 0 && d <= docs[i-1] || len(lists[i]) == 0 {
				t.Fatalf("document %d at %d out of order, out of range or empty", d, i)
			}
			for j, m := range lists[i] {
				if m.Loc < 0 || m.Loc > MaxPosition || j > 0 && m.Loc <= lists[i][j-1].Loc || m.Score != 0.5 {
					t.Fatalf("document %d match %d: %+v", d, j, m)
				}
			}
		}
		if !slices.Equal(docs, stemDocs(s)) {
			t.Fatalf("view documents %v, stem documents %v", docs, stemDocs(s))
		}
		fuzzConceptLists(t, c, concept, docs, lists)
	})
}

// FuzzDecodeBatch drives two arbitrary §1 posting buffers — data[0]
// bytes after the first, then the rest — through the merge of a
// concept over two stems at different weights, the merge every query
// runs: when both decode, the concept lists exactly the documents
// either stem holds, each with Compact.ConceptList's list bit for bit;
// when either is corrupt, the concept's stems fail to resolve. (The
// name is that of the batched block decode the merge replaces.)
func FuzzDecodeBatch(f *testing.F) {
	two := func(a, b []Posting) []byte {
		ea := EncodePostings(a)
		return append(append([]byte{byte(len(ea))}, ea...), EncodePostings(b)...)
	}
	f.Add([]byte{0})
	f.Add(two([]Posting{{Doc: 0, Pos: 0}}, []Posting{{Doc: 0, Pos: 0}}))
	f.Add(two([]Posting{{Doc: 1, Pos: 3}, {Doc: 1, Pos: 9}, {Doc: 7, Pos: 2}},
		[]Posting{{Doc: 1, Pos: 4}, {Doc: 1, Pos: 9}, {Doc: 5, Pos: 1}}))
	f.Add(two([]Posting{{Doc: 2, Pos: 503}, {Doc: 9, Pos: 1}}, []Posting{{Doc: 2, Pos: 503}, {Doc: 2, Pos: 504}}))
	f.Add(two([]Posting{{Doc: 3, Pos: 1 << 32}, {Doc: 1 << 33, Pos: 4}},
		[]Posting{{Doc: 3, Pos: 1<<32 - 1}, {Doc: MaxDocID, Pos: MaxPosition}}))
	f.Add(append([]byte{7, 2, 5, 1, 3, 0, 1, 4}, 1, 5, 2, 3, 4))
	f.Add(append([]byte{7, 2, 5, 1, 3, 0, 1, 2}, 1, 5, 1, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cut := 1 + min(int(data[0]), len(data)-1)
		a, b := data[1:cut], data[cut:]
		c := New().Compact()
		c.setPostings("alpha", a)
		c.setPostings("beta", b)
		concept := Concept{"alpha": 1, "beta": 0.25}
		sa, errA := decodeStem(a)
		sb, errB := decodeStem(b)
		if _, err := c.ConceptStems(concept); (err == nil) != (errA == nil && errB == nil) {
			t.Fatalf("ConceptStems error %v, stem errors %v, %v", err, errA, errB)
		}
		if errA != nil || errB != nil {
			return
		}
		want := slices.Compact(slices.Sorted(slices.Values(append(stemDocs(sa), stemDocs(sb)...))))
		docs, lists := c.conceptDocLists(concept)
		if !slices.Equal(docs, want) {
			t.Fatalf("concept documents %v, stems' %v", docs, want)
		}
		fuzzConceptLists(t, c, concept, docs, lists)
	})
}

// FuzzBlockDocs holds the per-document merge the engine's workers run
// (AppendConceptList at one document) to the whole-concept merge on
// arbitrary §1 posting bytes: a concept over the stem and a copy of it
// at half the weight, merged one document at a time after a prefix,
// leaves the prefix alone and appends exactly that document's list —
// strictly ascending positions, each at the higher weight — which is
// Compact.ConceptList's, bit for bit. (The name is that of the
// per-document block decode the merge replaces.)
func FuzzBlockDocs(f *testing.F) {
	addPostingSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeStem(data)
		if err != nil {
			return
		}
		c := New().Compact()
		c.setPostings("alpha", data)
		c.setPostings("beta", data)
		concept := Concept{"alpha": 1, "beta": 0.5}
		docs, lists := c.conceptDocLists(concept)
		if !slices.Equal(docs, stemDocs(s)) {
			t.Fatalf("concept documents %v, stem documents %v", docs, stemDocs(s))
		}
		prefix := match.List{{Loc: -1, Score: 7}}
		for i := range docs {
			at := []StemAt{{Arrays: s, I: i, Score: 0.5}, {Arrays: s, I: i, Score: 1}}
			got := AppendConceptList(prefix[:1:1], at)
			if got[0] != prefix[0] || !slices.Equal(got[1:], lists[i]) {
				t.Fatalf("doc %d: merged %v after the prefix, whole-concept merge %v", docs[i], got, lists[i])
			}
			for j, m := range lists[i] {
				if m.Score != 1 || j > 0 && m.Loc <= lists[i][j-1].Loc {
					t.Fatalf("doc %d match %d: %+v", docs[i], j, m)
				}
			}
		}
		fuzzConceptLists(t, c, concept, docs, lists)
	})
}

// addRejectedShapes seeds a loader fuzz target with every shape the
// loaders refuse — unframed, and the retired sections 2 to 5 — in
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

// FuzzDecodePairs holds the pair-list codec to a lossless round trip:
// records drawn from arbitrary bytes (ascending documents up to
// MaxDocID, tombstones, any finite scores including −0, witness
// locations up to MaxPosition), packed at a drawn block size, unpack
// bit for bit, with skip entries that bound each block. DecodeBlock
// checks nothing, so this is the contract that keeps a decoded list
// equal to the kernel outputs it stored.
func FuzzDecodePairs(f *testing.F) {
	record := func(b []byte, gap uint64, ok bool, score, s0, s1 float64, l0, l1 uint64) []byte {
		b = binary.AppendUvarint(b, gap)
		if !ok {
			return append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(score))
		b = binary.LittleEndian.AppendUint64(binary.AppendUvarint(b, l0), math.Float64bits(s0))
		return binary.LittleEndian.AppendUint64(binary.AppendUvarint(b, l1), math.Float64bits(s1))
	}
	f.Add([]byte{})
	f.Add(record([]byte{0}, 0, true, 1, 1, 0.5, 0, 1))
	f.Add(record(record(record([]byte{2}, 2, true, 1.5, 0.5, 1, 3, 7), 0, false, 0, 0, 0, 0, 0), 5, true, -0.25, -0.5, 0.25, 0, 2))
	f.Add(record(record([]byte{1}, MaxDocID-1, true, math.Copysign(0, -1), 0, 0, MaxPosition, 1), 0, true, 0, 0, 0, 1, 1))
	f.Add(record(record([]byte{0}, 3, true, math.NaN(), 0, 0, 0, 0), 1, true, 1, math.Inf(1), 0, 0, 0))
	f.Add(record(record(record([]byte{7}, 0, false, 0, 0, 0, 0, 0), 0, false, 0, 0, 0, 0, 0), 9, true, 2, 1, 1, 1<<41, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		blockSize := int(data[0]%8) - 1 // −1 and 0 mean BlockSize
		var entries []PairEntry
		b, doc := data[1:], -1
		float := func() (float64, bool) {
			if len(b) < 8 {
				return 0, false
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
			return v, !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		for len(b) > 0 {
			gap, n := binary.Uvarint(b)
			if n <= 0 || n == len(b) || gap >= uint64(MaxDocID-doc) {
				break
			}
			doc += int(gap) + 1
			ent := PairEntry{Doc: doc, OK: b[n] == 1}
			b = b[n+1:]
			if ent.OK {
				var fin [3]bool
				ent.Score, fin[0] = float()
				for j, w := range []*match.Match{&ent.W0, &ent.W1} {
					loc, n := binary.Uvarint(b)
					if n <= 0 {
						loc, n = 0, 0
					}
					b = b[n:]
					w.Loc = int(loc % (MaxPosition + 1))
					w.Score, fin[j+1] = float()
				}
				if fin != [3]bool{true, true, true} {
					ent = PairEntry{Doc: doc} // a kernel result the codec cannot carry: a tombstone
				}
			}
			entries = append(entries, ent)
		}
		pt, size := newPairTable(entries, blockSize)
		if len(entries) == 0 {
			if pt != nil || size != 0 {
				t.Fatalf("no records packed to %v, charged %d", pt, size)
			}
			return
		}
		assertSkipTable(t, pt)
		if got := decodeAll(t, pt); !entriesEqual(got, entries) {
			t.Fatalf("round trip changed pair entries:\n got %+v\nwant %+v", got, entries)
		}
		if size <= len(pt.payload) {
			t.Fatalf("%d records charged %d for a %d-byte payload", len(entries), size, len(pt.payload))
		}
	})
}
