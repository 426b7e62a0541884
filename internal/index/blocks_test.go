package index

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// blocksTestCompact builds a small corpus with enough documents to
// span several blocks at the given block size.
func blocksTestCompact(t *testing.T, nDocs int, seed int64) *Compact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"river", "bank", "flood", "water", "delta", "stone", "bridge", "valley"}
	ix := New()
	for d := 0; d < nDocs; d++ {
		n := 3 + rng.Intn(10)
		words := make([]string, n)
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		ix.AddText(d, strings.Join(words, " "))
	}
	return ix.Compact()
}

// flatConceptMatches derives the corpus-wide best-score-wins merge
// document by document from the per-document reference
// (Compact.ConceptList): the ground truth block decoding must
// reproduce bitwise.
func flatConceptMatches(c *Compact, concept Concept) (docs []int, lists []match.List) {
	for d := 0; d < c.Docs(); d++ {
		if l := c.ConceptList(d, concept); len(l) > 0 {
			docs = append(docs, d)
			lists = append(lists, l)
		}
	}
	return docs, lists
}

func TestBlocksRoundTripMatchesFlatDecode(t *testing.T) {
	c := blocksTestCompact(t, 300, 1)
	concept := Concept{text.Stem("river"): 1.0, text.Stem("bank"): 0.5, text.Stem("water"): 0.25}
	for _, size := range []int{1, 7, 64, 0} {
		SetBlockSizeForTest(c, size)
		bt, ok := c.ConceptBlocks(concept)
		if !ok {
			t.Fatalf("size %d: no table built", size)
		}
		wantDocs, wantLists := flatConceptMatches(c, concept)
		var gotDocs []int
		var gotLists []match.List
		prevLast := -1
		for i := 0; i < bt.NumBlocks(); i++ {
			info := bt.Infos[i]
			if info.FirstDoc <= prevLast {
				t.Fatalf("size %d: block %d overlaps predecessor", size, i)
			}
			prevLast = info.LastDoc
			docs, lists, err := bt.DecodeBlock(i)
			if err != nil {
				t.Fatalf("size %d: DecodeBlock(%d): %v", size, i, err)
			}
			dirDocs, err := bt.DecodeDocs(i)
			if err != nil {
				t.Fatalf("size %d: DecodeDocs(%d): %v", size, i, err)
			}
			if !reflect.DeepEqual(docs, dirDocs) {
				t.Fatalf("size %d: block %d directory docs disagree with full decode", size, i)
			}
			// Block max must equal the true max over the block's matches.
			max := math.Inf(-1)
			for _, l := range lists {
				for _, m := range l {
					if m.Score > max {
						max = m.Score
					}
				}
			}
			if max != info.MaxScore {
				t.Fatalf("size %d: block %d MaxScore = %v, content max %v", size, i, info.MaxScore, max)
			}
			gotDocs = append(gotDocs, docs...)
			gotLists = append(gotLists, lists...)
		}
		if !reflect.DeepEqual(gotDocs, wantDocs) {
			t.Fatalf("size %d: docs differ\n got %v\nwant %v", size, gotDocs, wantDocs)
		}
		if len(gotLists) != len(wantLists) {
			t.Fatalf("size %d: list count %d want %d", size, len(gotLists), len(wantLists))
		}
		for i := range gotLists {
			if !reflect.DeepEqual(gotLists[i], wantLists[i]) {
				t.Fatalf("size %d: doc %d match list differs\n got %v\nwant %v",
					size, gotDocs[i], gotLists[i], wantLists[i])
			}
		}
	}
}

// TestConceptBlocksEdges pins the builder's contract at its edges: a
// concept absent from the corpus is an empty table, and a non-finite
// weight builds none.
func TestConceptBlocksEdges(t *testing.T) {
	c := blocksTestCompact(t, 50, 2)
	bt, ok := c.ConceptBlocks(Concept{"nowhere": 1})
	if !ok || bt == nil || bt.NumBlocks() != 0 || bt.FindBlock(3) != -1 {
		t.Fatalf("absent concept: table %+v, ok %v; want an empty table", bt, ok)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if bt, ok := c.ConceptBlocks(Concept{"river": w}); ok || bt != nil {
			t.Fatalf("weight %v built a table", w)
		}
	}
}

func TestBlocksFindBlock(t *testing.T) {
	buf := EncodeBlocks(
		[]int{2, 3, 10, 11, 40},
		[]match.List{
			{{Loc: 1, Score: 1}}, {{Loc: 2, Score: 1}}, {{Loc: 3, Score: 2}},
			{{Loc: 4, Score: 1}}, {{Loc: 5, Score: 2}},
		}, 2)
	bt, err := DecodeBlocks(buf)
	if err != nil {
		t.Fatal(err)
	}
	if bt.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", bt.NumBlocks())
	}
	for doc, want := range map[int]int{2: 0, 3: 0, 10: 1, 11: 1, 40: 2} {
		if got := bt.FindBlock(doc); got != want {
			t.Errorf("FindBlock(%d) = %d, want %d", doc, got, want)
		}
	}
	// Gaps and out-of-range: no block claims these documents. Doc 5
	// falls between block 0 (2–3) and block 1 (10–11).
	for _, doc := range []int{0, 1, 5, 12, 41, 1000} {
		if got := bt.FindBlock(doc); got != -1 {
			t.Errorf("FindBlock(%d) = %d, want -1", doc, got)
		}
	}
}

func TestEncodeBlocksEmpty(t *testing.T) {
	if b := EncodeBlocks(nil, nil, 0); b != nil {
		t.Fatalf("EncodeBlocks(nil) = %v, want nil", b)
	}
	bt, err := DecodeBlocks(nil)
	if err != nil || bt != nil {
		t.Fatalf("DecodeBlocks(nil) = %v, %v; want nil, nil", bt, err)
	}
}

// TestAddConceptBlocksSkipsDegenerate pins what is left of the former
// registry: AddConceptBlocks stores nothing, for a degenerate concept or
// a served one, so the file it would be saved in is unchanged.
func TestAddConceptBlocksSkipsDegenerate(t *testing.T) {
	c := blocksTestCompact(t, 20, 2)
	before := c.Marshal()
	c.AddConceptBlocks(Concept{text.Stem("river"): math.NaN()})
	c.AddConceptBlocks(Concept{text.Stem("river"): math.Inf(1)})
	c.AddConceptBlocks(Concept{"zzz-absent-stem": 1.0})
	c.AddConceptBlocks(Concept{text.Stem("river"): 1.0})
	if !bytes.Equal(c.Marshal(), before) {
		t.Fatal("AddConceptBlocks changed the marshalled index")
	}
	if _, ok := c.ConceptBlocks(Concept{text.Stem("river"): math.NaN()}); ok {
		t.Fatal("ConceptBlocks returned ok for a NaN weight")
	}
}

// wideInput is block-table input whose document ids and positions
// straddle 2^32, so its table is flagged.
func wideInput() ([]int, []match.List) {
	return []int{0, math.MaxUint32, math.MaxUint32 + 4, 1<<33 + 7}, []match.List{
		{{Loc: 3, Score: 0.5}, {Loc: 7, Score: 1}},
		{{Loc: 1, Score: 0.5}},
		{{Loc: math.MaxUint32 + 1, Score: 1}},
		{{Loc: 2, Score: 0.25}, {Loc: MaxPosition, Score: 0.5}},
	}
}

// TestEncodeBlocksWideRoundTrip holds every slot a corpus can push
// past a lane — first gap, a later block's gap, span with document
// delta, first position, position delta — at 2^32−2 (the largest value
// an unflagged table stores), 2^32−1, 2^32 and MaxDocID/MaxPosition to
// an exact round trip, flagged exactly when the value needs the escape.
// (A payload length, match count or palette index that large needs a
// block of gigabytes; the same escape carries them, and crafted
// buffers in TestDecodeBlocksRejectsHostileBytes reach those slots.)
func TestEncodeBlocksWideRoundTrip(t *testing.T) {
	one := func(loc int) match.List { return match.List{{Loc: loc, Score: 1}} }
	for _, v := range []int{math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 1, MaxDocID} {
		for _, tc := range []struct {
			name      string
			docs      []int
			lists     []match.List
			blockSize int
		}{
			{"first gap", []int{v}, []match.List{one(0)}, 0},
			{"later gap", []int{0, v}, []match.List{one(0), one(0)}, 1},
			{"span and doc delta", []int{0, v}, []match.List{one(0), one(0)}, 0},
			{"first position", []int{0}, []match.List{one(v)}, 0},
			{"position delta", []int{0}, []match.List{{{Loc: 0, Score: 0.5}, {Loc: v, Score: 1}}}, 0},
		} {
			buf := EncodeBlocks(tc.docs, tc.lists, tc.blockSize)
			// An unflagged table starts with its palette count, never 0.
			if flagged, want := buf[0] == 0, v >= escapeLane; flagged != want {
				t.Errorf("%s = %d: flagged %v, want %v", tc.name, v, flagged, want)
			}
			bt, err := DecodeBlocks(buf)
			if err != nil {
				t.Fatalf("%s = %d: %v", tc.name, v, err)
			}
			docs, lists, err := bt.decodeAll()
			if err != nil || !reflect.DeepEqual(docs, tc.docs) || !reflect.DeepEqual(lists, tc.lists) {
				t.Errorf("%s = %d: round trip %v %v (%v), want %v %v", tc.name, v, docs, lists, err, tc.docs, tc.lists)
			}
		}
	}

	// An unflagged buffer may hold a literal 2^32−1 lane (writers before
	// the escape stored one there); it decodes as that value.
	payload := binary.AppendUvarint(nil, 1)                     // one doc
	payload = appendGroup(payload, []uint64{1})                 // one match
	payload = appendGroup(payload, []uint64{math.MaxUint32, 0}) // at 2^32−1
	literal := binary.AppendUvarint(nil, 1)
	literal = binary.LittleEndian.AppendUint64(literal, math.Float64bits(1))
	literal = binary.AppendUvarint(literal, 1)
	literal = appendGroup(literal, []uint64{5, 0, uint64(len(payload)), 0})
	bt, err := DecodeBlocks(append(literal, payload...))
	if err != nil {
		t.Fatal(err)
	}
	docs, lists, err := bt.decodeAll()
	if err != nil || !reflect.DeepEqual(docs, []int{5}) || !reflect.DeepEqual(lists, []match.List{one(math.MaxUint32)}) {
		t.Fatalf("literal 2^32−1 lane: %v %v (%v)", docs, lists, err)
	}
}

// Validate fully decodes every block, so corrupt or adversarial bytes
// anywhere in the table fail.
func (bt *BlockTable) Validate() error {
	if bt == nil {
		return nil
	}
	_, _, err := bt.decodeAll()
	return err
}

// decodeAll decodes every block, concatenating their documents and
// match lists in id order.
func (bt *BlockTable) decodeAll() (docs []int, lists []match.List, err error) {
	for i := range bt.Infos {
		d, l, err := bt.DecodeBlock(i)
		if err != nil {
			return nil, nil, err
		}
		docs = append(docs, d...)
		lists = append(lists, l...)
	}
	return docs, lists, nil
}

// rejectBlocks fails the test when b decodes to a table that validates.
func rejectBlocks(t *testing.T, name string, b []byte) {
	t.Helper()
	if bt, err := DecodeBlocks(b); err == nil && bt.Validate() == nil {
		t.Errorf("%s: hostile buffer accepted", name)
	}
}

// acceptBlocks decodes and validates b, failing the test otherwise.
func acceptBlocks(t *testing.T, name string, b []byte) *BlockTable {
	t.Helper()
	bt, err := DecodeBlocks(b)
	if err == nil {
		err = bt.Validate()
	}
	if err != nil {
		t.Fatalf("%s: valid buffer rejected: %v", name, err)
	}
	return bt
}

// craftStream is one hand-built stream: its lanes, then the trailer
// values a flagged table carries after them.
type craftStream struct{ lanes, trailer []uint64 }

func (s craftStream) put(b []byte) []byte {
	for i := 0; i < len(s.lanes); i += 4 {
		b = appendGroup(b, s.lanes[i:min(i+4, len(s.lanes))])
	}
	for _, v := range s.trailer {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// craftTable builds a one-block table over the palette (0.5, 1.0) from
// raw streams; skip gets the payload length.
func craftTable(flagged bool, skip func(payloadLen uint64) craftStream, dir, matches craftStream) []byte {
	var b []byte
	if flagged {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, 2)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1.0))
	b = binary.AppendUvarint(b, 1)
	payload := matches.put(dir.put(binary.AppendUvarint(nil, 1)))
	return append(skip(uint64(len(payload))).put(b), payload...)
}

// skipWith is the all-lane skip stream of a one-block table holding
// document 3, with the given max index.
func skipWith(maxIdx uint64) func(uint64) craftStream {
	return func(n uint64) craftStream { return craftStream{lanes: []uint64{3, 0, n, maxIdx}} }
}

// TestDecodeBlocksBatchRejectsHostileBytes exercises the bounded-decode
// contract on unflagged tables — lanes only, byte for byte the batched
// group-varint layout of every table without a wide value: truncation
// at every length, giant counts, NaN palette bits, and the
// soundness-critical lying block max.
func TestDecodeBlocksBatchRejectsHostileBytes(t *testing.T) {
	valid := EncodeBlocks([]int{1, 2, 5}, []match.List{
		{{Loc: 3, Score: 0.5}, {Loc: 7, Score: 1.0}},
		{{Loc: 1, Score: 0.5}},
		{{Loc: 2, Score: 1.0}},
	}, 2)
	acceptBlocks(t, "valid", valid)
	for i := 1; i < len(valid); i++ {
		rejectBlocks(t, "truncated", valid[:i])
	}
	rejectBlocks(t, "giant palette count", binary.AppendUvarint(nil, math.MaxUint64))
	rejectBlocks(t, "nan palette", append(binary.AppendUvarint(nil, 1),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...))
	giantBlocks := binary.AppendUvarint(nil, 1)
	giantBlocks = binary.LittleEndian.AppendUint64(giantBlocks, math.Float64bits(1))
	rejectBlocks(t, "giant block count", binary.AppendUvarint(giantBlocks, math.MaxUint64))

	// One document (3) with one match at position 2, score index 1.
	dir, matches := craftStream{lanes: []uint64{1}}, craftStream{lanes: []uint64{2, 1}}
	if bt := acceptBlocks(t, "honest", craftTable(false, skipWith(1), dir, matches)); bt.Infos[0].FirstDoc != 3 || bt.Infos[0].MaxScore != 1.0 {
		t.Fatalf("honest buffer decoded to %+v", bt.Infos[0])
	}
	// Lying block max: the skip entry claims maxIdx 0 while the match
	// uses palette index 1. Accepting it would understate a block-max
	// bound and let pruning drop real answers.
	rejectBlocks(t, "lying block max", craftTable(false, skipWith(0), dir, matches))
}

// TestDecodeBlocksRejectsHostileBytes exercises the same contract on
// flagged tables, whose escaped values arrive as uvarints: truncation
// at every length, a giant or empty palette behind the flag, escapes
// out of range, missing or read as literal lanes, and a lying block
// max carried in an escape.
func TestDecodeBlocksRejectsHostileBytes(t *testing.T) {
	docs, lists := wideInput()
	valid := EncodeBlocks(docs, lists, 2)
	acceptBlocks(t, "valid", valid)
	for i := 1; i < len(valid); i++ {
		rejectBlocks(t, "truncated", valid[:i])
	}
	rejectBlocks(t, "flagged giant palette count", binary.AppendUvarint([]byte{0}, math.MaxUint64))
	rejectBlocks(t, "flagged empty palette", []byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})

	// The honest one-block table of the unflagged test with every slot
	// escaped, each true value in its stream's trailer — the path a
	// payload length, match count or palette index past a lane would
	// take.
	esc := []uint64{escapeLane, escapeLane, escapeLane, escapeLane}
	escapedSkip := func(maxIdx uint64) func(uint64) craftStream {
		return func(n uint64) craftStream { return craftStream{esc, []uint64{3, 0, n, maxIdx}} }
	}
	dir, matches := craftStream{esc[:1], []uint64{1}}, craftStream{esc[:2], []uint64{2, 1}}
	escaped := craftTable(true, escapedSkip(1), dir, matches)
	if bt := acceptBlocks(t, "every slot escaped", escaped); bt.Infos[0].FirstDoc != 3 || bt.Infos[0].MaxScore != 1.0 {
		t.Fatalf("escaped buffer decoded to %+v", bt.Infos[0])
	}
	rejectBlocks(t, "lying escaped block max", craftTable(true, escapedSkip(0), dir, matches))
	rejectBlocks(t, "escapes read as literal lanes", escaped[1:])
	// Converted unchecked, this position would wrap to −1.
	rejectBlocks(t, "escape past MaxPosition", craftTable(true, skipWith(1),
		craftStream{lanes: []uint64{1}}, craftStream{[]uint64{escapeLane, 1}, []uint64{math.MaxUint64}}))
	rejectBlocks(t, "escape without trailer", craftTable(true, skipWith(1),
		craftStream{lanes: []uint64{escapeLane}}, craftStream{lanes: []uint64{2, 1}}))
}

// flipEveryBit decodes every single-bit mutation of valid. Each must
// either fail to decode or still satisfy every invariant — never panic,
// never read out of range. (Framing CRCs catch these at load; this pins
// the codec's own robustness.)
func flipEveryBit(valid []byte) {
	for i := 0; i < len(valid)*8; i++ {
		mut := append([]byte(nil), valid...)
		mut[i/8] ^= 1 << (i % 8)
		// A flip may survive decode (toggling a score bit keeps a
		// coherent buffer); then the table must still validate or fail
		// cleanly, end to end.
		if bt, err := DecodeBlocks(mut); err == nil {
			_ = bt.Validate()
		}
	}
}

// TestDecodeBlocksBatchRejectsEveryBitFlip flips each bit of an
// unflagged buffer built from a corpus.
func TestDecodeBlocksBatchRejectsEveryBitFlip(t *testing.T) {
	c := blocksTestCompact(t, 40, 3)
	docs, lists := c.conceptDocLists(Concept{text.Stem("river"): 1.0, text.Stem("delta"): 0.5})
	valid := EncodeBlocks(docs, lists, 8)
	if len(valid) == 0 || valid[0] == 0 {
		t.Fatal("table missing or flagged")
	}
	flipEveryBit(valid)
}

// TestDecodeBlocksRejectsEveryBitFlip flips each bit of a flagged
// buffer, trailers included.
func TestDecodeBlocksRejectsEveryBitFlip(t *testing.T) {
	docs, lists := wideInput()
	valid := EncodeBlocks(docs, lists, 2)
	if valid[0] != 0 {
		t.Fatal("wide input encoded unflagged")
	}
	flipEveryBit(valid)
}

// decodeGroups' two paths — the branch-free ≥17-byte fast path and the
// byte-checked tail — must agree on every stream, including streams
// short enough that the fast path never runs.
func TestDecodeGroupsPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(23)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = min(rng.Uint64()>>uint(32+rng.Intn(25)), escapeLane-1)
		}
		enc, _ := appendStream(nil, vals)
		// Padded: the fast path can run full groups. Unpadded: the tail
		// loop must produce the same values near the end of the buffer.
		padded := append(append([]byte{}, enc...), make([]byte, 32)...)
		got := make([]uint32, n)
		rest, ok := decodeGroups(padded, got)
		if !ok || len(rest) != 32 {
			t.Fatalf("trial %d: padded decode failed (ok=%v rest=%d)", trial, ok, len(rest))
		}
		tight := make([]uint32, n)
		rest, ok = decodeGroups(enc, tight)
		if !ok || len(rest) != 0 {
			t.Fatalf("trial %d: tight decode failed (ok=%v rest=%d)", trial, ok, len(rest))
		}
		for i := range vals {
			if uint64(got[i]) != vals[i] || uint64(tight[i]) != vals[i] {
				t.Fatalf("trial %d: value %d decoded %d (padded) / %d (tight), want %d",
					trial, i, got[i], tight[i], vals[i])
			}
		}
	}
}

// checkBlockDocs holds every block of bt to the per-document decode
// contract FuzzBlockDocs states.
func checkBlockDocs(t *testing.T, bt *BlockTable) {
	t.Helper()
	for i := range bt.Infos {
		docs, lists, err := bt.DecodeBlock(i)
		bd, derr := bt.DecodeBlockDocs(i)
		if derr != nil {
			if err == nil {
				t.Fatalf("block %d: DecodeBlock succeeds, DecodeBlockDocs: %v", i, derr)
			}
			continue
		}
		if err == nil && !reflect.DeepEqual(bd.Docs, docs) {
			t.Fatalf("block %d: DecodeBlockDocs lists %v, DecodeBlock %v", i, bd.Docs, docs)
		}
		total := 0
		for d := range bd.Docs {
			total += bd.Count(d)
			// Appending after a prefix must leave the prefix alone.
			prefix := match.List{{Loc: -1, Score: 7}}
			got, gerr := bd.DecodeDoc(prefix, d)
			if gerr == nil {
				if len(got) != 1+bd.Count(d) || got[0] != prefix[0] {
					t.Fatalf("block %d doc %d: %d matches after the prefix, count %d", i, d, len(got)-1, bd.Count(d))
				}
				for m := 2; m < len(got); m++ {
					if got[m].Loc <= got[m-1].Loc {
						t.Fatalf("block %d doc %d: positions not ascending", i, d)
					}
				}
			}
			if err != nil {
				continue // DecodeBlock rejected the block: either outcome
			}
			if gerr != nil {
				t.Fatalf("block %d doc %d: DecodeBlock succeeds, DecodeDoc: %v", i, d, gerr)
			}
			want := lists[d]
			for m := range want {
				g := got[1+m]
				if g.Loc != want[m].Loc || math.Float64bits(g.Score) != math.Float64bits(want[m].Score) {
					t.Fatalf("block %d doc %d match %d: %+v, DecodeBlock %+v", i, d, m, g, want[m])
				}
			}
		}
		if bd.Total != total {
			t.Fatalf("block %d: Total %d, counts sum to %d", i, bd.Total, total)
		}
	}
}

// TestDecodeDocMatchesDecodeBlock runs the per-document contract over
// built tables at several block sizes, over flagged tables, and
// over documents with more matches than DecodeDoc decodes on the stack.
func TestDecodeDocMatchesDecodeBlock(t *testing.T) {
	c := blocksTestCompact(t, 300, 5)
	concept := Concept{text.Stem("river"): 1.0, text.Stem("bank"): 0.5, text.Stem("water"): 0.25}
	for _, size := range []int{1, 3, 64, 0} {
		SetBlockSizeForTest(c, size)
		bt, _ := c.ConceptBlocks(concept)
		checkBlockDocs(t, bt)
	}
	docs, lists := wideInput()
	for _, size := range []int{1, 2, 3, 0} {
		bt, err := DecodeBlocks(EncodeBlocks(docs, lists, size))
		if err != nil {
			t.Fatal(err)
		}
		checkBlockDocs(t, bt)
	}
	long := func(base, step int) match.List {
		l := make(match.List, 3*docLanes)
		for m := range l {
			l[m] = match.Match{Loc: base + m*step, Score: float64(m % 3)}
		}
		return l
	}
	for _, step := range []int{1, math.MaxUint32} {
		bt, err := DecodeBlocks(EncodeBlocks([]int{4, 9, 10},
			[]match.List{long(0, step), {{Loc: 5, Score: 1}}, long(math.MaxUint32, step)}, 0))
		if err != nil {
			t.Fatal(err)
		}
		checkBlockDocs(t, bt)
	}
}

// TestDecodeBlockDocsIsolatesCorruptDocument corrupts one document's
// score index: DecodeBlock rejects the whole block, DecodeBlockDocs
// still indexes it, and only that document's decode fails.
func TestDecodeBlockDocsIsolatesCorruptDocument(t *testing.T) {
	docs := []int{1, 2, 3}
	lists := []match.List{{{Loc: 3, Score: 0.5}}, {{Loc: 1, Score: 1}}, {{Loc: 2, Score: 0.5}}}
	buf := EncodeBlocks(docs, lists, 0)
	bt, err := DecodeBlocks(buf)
	if err != nil {
		t.Fatal(err)
	}
	// The match area's last byte is document 3's one-byte score index.
	buf[len(buf)-1] = 0x7f
	if _, _, err := bt.DecodeBlock(0); err == nil {
		t.Fatal("DecodeBlock accepted a score index outside the palette")
	}
	bd, err := bt.DecodeBlockDocs(0)
	if err != nil {
		t.Fatalf("DecodeBlockDocs: %v", err)
	}
	for d := range docs {
		got, err := bd.DecodeDoc(nil, d)
		if d == 2 {
			if err == nil {
				t.Fatal("corrupt document decoded")
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, lists[d]) {
			t.Fatalf("doc %d: %v (%v), want %v", d, got, err, lists[d])
		}
	}
}

// BenchmarkBlockDecode prices one block of BlockSize documents with 12
// matches each three ways: the whole-block DecodeBlock, the match-area
// index DecodeBlockDocs, and that index plus two documents' DecodeDoc —
// the list-cache miss of a query that needs two documents of a block.
func BenchmarkBlockDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	docs := make([]int, BlockSize)
	lists := make([]match.List, BlockSize)
	for d := range docs {
		docs[d] = 3 * d
		pos := 0
		for m := 0; m < 12; m++ {
			pos += 1 + rng.Intn(300)
			lists[d] = append(lists[d], match.Match{Loc: pos, Score: []float64{0.5, 0.8, 1}[rng.Intn(3)]})
		}
	}
	bt, err := DecodeBlocks(EncodeBlocks(docs, lists, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := bt.DecodeBlock(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bt.DecodeBlockDocs(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index+2docs", func(b *testing.B) {
		b.ReportAllocs()
		var dst match.List
		for i := 0; i < b.N; i++ {
			bd, err := bt.DecodeBlockDocs(0)
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range []int{17, 90} {
				if dst, err = bd.DecodeDoc(dst[:0], d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
