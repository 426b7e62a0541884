package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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

// TestBlocksRoundTripMatchesFlatDecode holds the block view to the
// per-document reference: its ranges, concatenated, list every
// document of the concept with its Compact.ConceptList, bit for bit.
func TestBlocksRoundTripMatchesFlatDecode(t *testing.T) {
	c := blocksTestCompact(t, 300, 1)
	concept := Concept{"river": 1.0, "bank": 0.5, "water": 0.25, "banks": 0.75}
	bt, ok := c.ConceptBlocks(concept)
	if !ok {
		t.Fatal("no view built")
	}
	wantDocs, wantLists := flatConceptMatches(c, concept)
	if bt.NumBlocks() != (len(wantDocs)+BlockSize-1)/BlockSize {
		t.Fatalf("NumBlocks = %d for %d documents", bt.NumBlocks(), len(wantDocs))
	}
	var gotDocs []int
	var gotLists []match.List
	for i := 0; i < bt.NumBlocks(); i++ {
		docs, lists, err := bt.DecodeBlock(i)
		if err != nil || len(docs) != len(lists) || len(docs) == 0 || len(docs) > BlockSize {
			t.Fatalf("DecodeBlock(%d): %d docs, %d lists, %v", i, len(docs), len(lists), err)
		}
		gotDocs = append(gotDocs, docs...)
		gotLists = append(gotLists, lists...)
	}
	if !reflect.DeepEqual(gotDocs, wantDocs) || !reflect.DeepEqual(gotLists, wantLists) {
		t.Fatalf("view differs from ConceptList\n got %v %v\nwant %v %v", gotDocs, gotLists, wantDocs, wantLists)
	}
}

// TestConceptBlocksEdges pins the builder's contract at its edges: a
// concept absent from the corpus is an empty table, and a non-finite
// weight builds none.
func TestConceptBlocksEdges(t *testing.T) {
	c := blocksTestCompact(t, 50, 2)
	bt, ok := c.ConceptBlocks(Concept{"nowhere": 1})
	if !ok || bt == nil || bt.NumBlocks() != 0 {
		t.Fatalf("absent concept: table %+v, ok %v; want an empty table", bt, ok)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if bt, ok := c.ConceptBlocks(Concept{"river": w}); ok || bt != nil {
			t.Fatalf("weight %v built a table", w)
		}
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

// TestStemArraysMatchDecodePostings holds every stem's arrays to its
// postings: the same (doc, pos) pairs in the same order, each
// document's mask the join.Signature mask of its positions.
func TestStemArraysMatchDecodePostings(t *testing.T) {
	c := blocksTestCompact(t, 200, 3)
	for stem, buf := range c.postings {
		s, err := c.Stem(stem)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := c.Stem(stem)
		if again != s {
			t.Fatalf("stem %q decoded twice", stem)
		}
		want, _ := DecodePostings(buf)
		if got := flattenStem(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("stem %q: arrays %v, postings %v", stem, got, want)
		}
	}
	if s, err := c.Stem("zzz-absent"); s != nil || err != nil {
		t.Fatalf("absent stem: %v, %v", s, err)
	}
	CorruptPostingsForTest(c, "river")
	for range 2 {
		if _, err := c.Stem(text.Stem("river")); err == nil {
			t.Fatal("corrupt postings decoded")
		}
	}
}

// flattenStem lists a stem's arrays as postings, checking each
// document's mask against its positions.
func flattenStem(s *StemArrays) []Posting {
	var out []Posting
	for i, d := range stemDocs(s) {
		mask := uint64(0)
		for j := s.Start(i); j < s.End(i); j++ {
			out = append(out, Posting{Doc: d, Pos: s.Pos(j)})
			mask |= locBit(s.Pos(j))
		}
		if mask != s.Mask(i) || s.End(i) <= s.Start(i) {
			panic("stem arrays: a document's mask or range disagrees with its positions")
		}
	}
	return out
}

// stemDocs lists a stem's document ids.
func stemDocs(s *StemArrays) []int {
	ids := make([]int, s.Len())
	for i := range ids {
		ids[i] = s.Doc(i)
	}
	return ids
}

// TestConceptListWideValues crafts stems whose document ids and
// positions run past 2^32, up to MaxDocID and MaxPosition, two of them
// sharing positions: the merged lists must equal Compact.ConceptList
// bit for bit, and the shared positions carry the higher weight.
func TestConceptListWideValues(t *testing.T) {
	c := New().Compact()
	c.setPostings(text.Stem("alpha"), EncodePostings([]Posting{
		{Doc: 3, Pos: 5}, {Doc: 3, Pos: 1 << 33}, {Doc: 1 << 35, Pos: 7}, {Doc: 1 << 35, Pos: MaxPosition},
		{Doc: MaxDocID, Pos: 1<<32 - 1}, {Doc: MaxDocID, Pos: 1 << 32},
	}))
	c.setPostings(text.Stem("beta"), EncodePostings([]Posting{
		{Doc: 3, Pos: 1 << 33}, {Doc: 3, Pos: 1<<33 + 1}, {Doc: 1 << 35, Pos: 7}, {Doc: MaxDocID, Pos: 2},
	}))
	c.docs = MaxDocID + 1
	concept := Concept{"alpha": 0.5, "beta": 0.75}
	docs, lists := c.conceptDocLists(concept)
	if want := []int{3, 1 << 35, MaxDocID}; !reflect.DeepEqual(docs, want) {
		t.Fatalf("docs %v, want %v", docs, want)
	}
	for i, d := range docs {
		if want := c.ConceptList(d, concept); !reflect.DeepEqual(lists[i], want) {
			t.Fatalf("doc %d: merged %v, ConceptList %v", d, lists[i], want)
		}
	}
	if m := lists[0][1]; m.Loc != 1<<33 || m.Score != 0.75 {
		t.Fatalf("shared position scored %+v, want the higher weight", m)
	}
}

// TestAppendConceptListManyStems merges a document held by more stems
// than the merge keeps cursors for on the stack, each stem's weight
// its rank: the list is ConceptList's, and Seek locates every stem's
// document.
func TestAppendConceptListManyStems(t *testing.T) {
	ix := New()
	words := strings.Fields("river bank flood water delta stone bridge valley canyon ridge")
	ix.AddText(0, strings.Join(words, " ")+" "+strings.Join(words, " "))
	ix.AddText(2, "river")
	c := ix.Compact()
	concept := Concept{}
	for i, w := range words {
		concept[w] = float64(i + 1)
	}
	stems, err := c.ConceptStems(concept)
	if err != nil || len(stems) != len(words) {
		t.Fatalf("%d stems, %v", len(stems), err)
	}
	var at []StemAt
	for _, s := range stems {
		i := s.Arrays.Seek(0, 0)
		if s.Arrays.Doc(i) != 0 || s.Arrays.Seek(0, 1) != s.Arrays.Len() && s.Arrays.Doc(s.Arrays.Seek(0, 1)) != 2 {
			t.Fatalf("stem %q: Seek(0, 0) = %d, Seek(0, 1) = %d", s.Stem, i, s.Arrays.Seek(0, 1))
		}
		at = append(at, StemAt{Arrays: s.Arrays, I: i, Score: s.Score})
	}
	if got, want := AppendConceptList(nil, at), c.ConceptList(0, concept); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %v, ConceptList %v", got, want)
	}
	if heavy := c.HeavyStems(1); len(heavy) != 1 || heavy[0] != text.Stem("river") {
		t.Fatalf("HeavyStems(1) = %v", heavy)
	}
	if n := c.ConceptPostingBytes(Concept{"river": 1, "zzz": 1}); n != len(c.postings[text.Stem("river")]) {
		t.Fatalf("ConceptPostingBytes = %d", n)
	}
}

// wideInput is concept match data whose document ids and positions
// straddle 2^32, up to MaxPosition, at the weights wideWords names.
func wideInput() ([]int, []match.List) {
	return []int{0, math.MaxUint32, math.MaxUint32 + 4, 1<<33 + 7}, []match.List{
		{{Loc: 3, Score: 0.5}, {Loc: 7, Score: 1}},
		{{Loc: 1, Score: 0.5}},
		{{Loc: math.MaxUint32 + 1, Score: 1}},
		{{Loc: 2, Score: 0.25}, {Loc: MaxPosition, Score: 0.5}},
	}
}

// wideWords names one word per weight of wideInput.
var wideWords = map[float64]string{0.25: "wquarter", 0.5: "whalf", 1: "wone"}

// compactOf builds an index holding exactly lists at docs, each match a
// token of its weight's word (wideWords), and the concept weighting
// each word by its weight: its merged lists are lists.
func compactOf(docs []int, lists []match.List) (*Compact, Concept) {
	ix := New()
	for i, d := range docs {
		var toks []text.Token
		for _, m := range lists[i] {
			toks = append(toks, text.Token{Word: wideWords[m.Score], Pos: m.Loc})
		}
		ix.Add(d, toks)
	}
	concept := Concept{}
	for score, w := range wideWords {
		concept[w] = score
	}
	return ix.Compact(), concept
}

// TestBlocksFindBlock pins the document lookups that replaced the
// block directory's FindBlock: StemArrays.Seek finds a document's index
// from any index at or before it, and a document between or past the
// stem's documents seeks to the next one, or Len; the block view puts
// the document of rank r in range r/BlockSize.
func TestBlocksFindBlock(t *testing.T) {
	docs := []int{2, 3, 10, 11, 40}
	var ps []Posting
	for i, d := range docs {
		ps = append(ps, Posting{Doc: d, Pos: i})
	}
	s, err := decodeStem(EncodePostings(ps))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []int{0, 1, 2, 3, 5, 10, 11, 12, 40, 41, 1000} {
		want := sort.SearchInts(docs, doc)
		for lo := 0; lo <= want; lo++ {
			if got := s.Seek(lo, doc); got != want {
				t.Errorf("Seek(%d, %d) = %d, want %d", lo, doc, got, want)
			}
		}
	}

	ps = ps[:0]
	for d := 0; d < 2*BlockSize+5; d++ {
		ps = append(ps, Posting{Doc: 3 * d, Pos: d % 7})
	}
	c := New().Compact()
	c.setPostings("alpha", EncodePostings(ps))
	bt, _ := c.ConceptBlocks(Concept{"alpha": 1})
	if bt.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", bt.NumBlocks())
	}
	for r, p := range ps {
		docs, _, _ := bt.DecodeBlock(r / BlockSize)
		if docs[r%BlockSize] != p.Doc {
			t.Fatalf("document %d (rank %d) not at %d of range %d", p.Doc, r, r%BlockSize, r/BlockSize)
		}
	}
}

// TestEncodeBlocksEmpty pins the empty edge of every form a concept's
// data takes: the frozen table encoder TestMarshalBytesPinned hashes
// writes nothing for no documents, empty postings encode to nothing and
// decode to a stem of no documents, a concept over them has a view of
// no ranges, and a merge over no stems appends nothing.
func TestEncodeBlocksEmpty(t *testing.T) {
	if b := EncodeBlocks(nil, nil, 0); b != nil {
		t.Fatalf("EncodeBlocks(nil) = %v, want nil", b)
	}
	if b := EncodePostings(nil); b != nil {
		t.Fatalf("EncodePostings(nil) = %v, want nil", b)
	}
	s, err := decodeStem(nil)
	if err != nil || s.Len() != 0 || s.Seek(0, 5) != 0 {
		t.Fatalf("decodeStem(nil) = %+v, %v; want no documents", s, err)
	}
	c := New().Compact()
	c.setPostings("alpha", nil)
	if bt, ok := c.ConceptBlocks(Concept{"alpha": 1}); !ok || bt.NumBlocks() != 0 {
		t.Fatalf("view over empty postings: %+v, %v", bt, ok)
	}
	dst := match.List{{Loc: 4, Score: 1}}
	if got := AppendConceptList(dst, nil); !reflect.DeepEqual(got, dst) {
		t.Fatalf("merge of no stems appended: %v", got)
	}
}

// TestEncodeBlocksWideRoundTrip holds every slot of a stem's §1 bytes a
// corpus can push past 32 bits — the first document delta, a later
// one, the first position, a position delta, and a position continuing
// a repeated document run — at 2^32−2, 2^32−1, 2^32 and
// MaxDocID/MaxPosition to an exact round trip through the stem
// arrays, and the concept over the stem to Compact.ConceptList.
func TestEncodeBlocksWideRoundTrip(t *testing.T) {
	for _, v := range []int{math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 1, MaxDocID} {
		// Document 0 as two runs, the second's position at v.
		repeated := binary.AppendUvarint([]byte{2, 0, 1, 0, 0, 1}, uint64(v))
		for _, tc := range []struct {
			name string
			ps   []Posting
			raw  []byte // the bytes, when not EncodePostings(ps)
		}{
			{"first gap", []Posting{{Doc: v, Pos: 0}}, nil},
			{"later gap", []Posting{{Doc: 0, Pos: 0}, {Doc: v, Pos: 1}}, nil},
			{"first position", []Posting{{Doc: 0, Pos: v}}, nil},
			{"position delta", []Posting{{Doc: 0, Pos: 0}, {Doc: 0, Pos: v}}, nil},
			{"repeated run", []Posting{{Doc: 0, Pos: 0}, {Doc: 0, Pos: v}}, repeated},
		} {
			b := tc.raw
			if b == nil {
				b = EncodePostings(tc.ps)
			}
			s, err := decodeStem(b)
			if err != nil {
				t.Fatalf("%s = %d: %v", tc.name, v, err)
			}
			if got := flattenStem(s); !reflect.DeepEqual(got, tc.ps) {
				t.Fatalf("%s = %d: round trip %v, want %v", tc.name, v, got, tc.ps)
			}
			c := New().Compact()
			c.setPostings("alpha", b)
			c.docs = MaxDocID + 1
			concept := Concept{"alpha": 0.5}
			docs, lists := c.conceptDocLists(concept)
			for i, d := range docs {
				if want := c.ConceptList(d, concept); !reflect.DeepEqual(lists[i], want) {
					t.Fatalf("%s = %d: doc %d merged %v, ConceptList %v", tc.name, v, d, lists[i], want)
				}
			}
		}
	}
}

// rejectStem fails the test unless the stem decode refuses b, as
// DecodePostings does, and Compact.Stem reports it on every use,
// keeping nothing.
func rejectStem(t *testing.T, name string, b []byte) {
	t.Helper()
	if _, err := decodeStem(b); err == nil {
		t.Errorf("%s: hostile postings decoded", name)
	}
	if _, err := DecodePostings(b); err == nil {
		t.Errorf("%s: DecodePostings accepted hostile postings", name)
	}
	c := New().Compact()
	c.setPostings("alpha", b)
	for range 2 {
		if s, err := c.Stem("alpha"); err == nil || s != nil {
			t.Errorf("%s: Stem = %v, %v; want an error", name, s, err)
		}
	}
}

// acceptStem decodes b, failing the test unless its arrays list
// exactly DecodePostings' postings.
func acceptStem(t *testing.T, name string, b []byte) *StemArrays {
	t.Helper()
	s, err := decodeStem(b)
	want, werr := DecodePostings(b)
	if err != nil || werr != nil {
		t.Fatalf("%s: valid postings rejected: %v, %v", name, err, werr)
	}
	if got := flattenStem(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: arrays %v, postings %v", name, got, want)
	}
	return s
}

// assertRejectsHostile holds the stem decode to the bounded-decode
// contract around one valid buffer: valid is accepted, and every
// truncation of it and every hostile buffer is refused.
func assertRejectsHostile(t *testing.T, valid []byte, hostile map[string][]byte) {
	t.Helper()
	acceptStem(t, "valid", valid)
	for i := 1; i < len(valid); i++ {
		rejectStem(t, fmt.Sprintf("truncated to %d bytes", i), valid[:i])
	}
	rejectStem(t, "trailing byte", append(slices.Clip(valid), 0))
	for name, b := range hostile {
		rejectStem(t, name, b)
	}
}

// TestDecodeBlocksBatchRejectsHostileBytes exercises the stem decode's
// bounded-decode contract on postings below 2^32: truncation at every
// length, a trailing byte, giant counts before no payload, an overlong
// varint, and a repeated document run whose positions restart — which
// would hand the merge unsorted positions. A repeated run whose
// positions continue is one document.
func TestDecodeBlocksBatchRejectsHostileBytes(t *testing.T) {
	valid := EncodePostings([]Posting{{Doc: 1, Pos: 3}, {Doc: 1, Pos: 7}, {Doc: 2, Pos: 1}, {Doc: 5, Pos: 2}})
	giant := binary.AppendUvarint(nil, math.MaxUint64)
	assertRejectsHostile(t, valid, map[string][]byte{
		"giant document count":   giant,
		"giant position count":   binary.AppendUvarint([]byte{1, 0}, math.MaxUint64),
		"overlong varint":        bytes.Repeat([]byte{0xff}, 11),
		"restarted repeat run":   {2, 5, 1, 3, 0, 1, 2},
		"missing position":       {1, 0, 2, 4},
		"document count too low": {1, 0, 1, 4, 1, 1, 2},
	})
	s := acceptStem(t, "continued repeat run", []byte{2, 5, 1, 3, 0, 1, 4})
	if s.Len() != 1 || s.End(0) != 2 {
		t.Fatalf("continued repeat run: %d documents, %d positions", s.Len(), s.End(0))
	}
}

// TestDecodeBlocksRejectsHostileBytes exercises the same contract on
// postings past 2^32, where the refusals that matter are the bounds:
// a document delta or a position delta past MaxDocID/MaxPosition, one
// that carries the accumulated id or position past it, and a delta of
// 2^64−1 — which, converted unchecked, would wrap to −1.
func TestDecodeBlocksRejectsHostileBytes(t *testing.T) {
	docs, lists := wideInput()
	c, _ := compactOf(docs, lists)
	valid := c.postings[text.Stem("whalf")]
	doc := func(deltas ...uint64) []byte { // one position, at 0, per document
		b := binary.AppendUvarint(nil, uint64(len(deltas)))
		for _, d := range deltas {
			b = append(binary.AppendUvarint(b, d), 1, 0)
		}
		return b
	}
	pos := func(deltas ...uint64) []byte { // one document, 0
		b := binary.AppendUvarint([]byte{1, 0}, uint64(len(deltas)))
		for _, d := range deltas {
			b = binary.AppendUvarint(b, d)
		}
		return b
	}
	acceptStem(t, "largest document id", doc(1<<32, MaxDocID-1<<32))
	acceptStem(t, "largest position", pos(1<<32, MaxPosition-1<<32))
	assertRejectsHostile(t, valid, map[string][]byte{
		"document delta past MaxDocID":    doc(MaxDocID + 1),
		"document id past MaxDocID":       doc(1<<32, MaxDocID),
		"document delta 2^64−1":           doc(math.MaxUint64),
		"position delta past MaxPosition": pos(MaxPosition + 1),
		"position past MaxPosition":       pos(1<<32, MaxPosition),
		"position delta 2^64−1":           pos(math.MaxUint64),
	})
}

// flipEveryBit replaces one stem's postings of c with every
// single-bit mutation of them in turn. Each must either fail to decode
// — the stem decode and DecodePostings alike — or still satisfy every
// invariant: arrays listing exactly DecodePostings' postings, and the
// concept's merged lists on its first documents Compact.ConceptList's.
// Never a panic, never a read out of range. (Framing CRCs catch these
// at load; this pins the decode's own robustness.)
func flipEveryBit(t *testing.T, c *Compact, stem string, concept Concept) {
	t.Helper()
	valid := c.postings[stem]
	for i := 0; i < len(valid)*8; i++ {
		mut := slices.Clone(valid)
		mut[i/8] ^= 1 << (i % 8)
		s, err := decodeStem(mut)
		want, werr := DecodePostings(mut)
		if (err == nil) != (werr == nil) {
			t.Fatalf("bit %d: decodeStem error %v, DecodePostings error %v", i, err, werr)
		}
		c.setPostings(stem, mut)
		if err != nil {
			if _, err := c.ConceptStems(concept); err == nil {
				t.Fatalf("bit %d: concept resolved over corrupt postings", i)
			}
			continue
		}
		if got := flattenStem(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("bit %d: arrays %v, postings %v", i, got, want)
		}
		docs, lists := c.conceptDocLists(concept)
		for j, d := range docs[:min(len(docs), 8)] {
			if ref := c.ConceptList(d, concept); !reflect.DeepEqual(lists[j], ref) {
				t.Fatalf("bit %d: doc %d merged %v, ConceptList %v", i, d, lists[j], ref)
			}
		}
	}
	c.setPostings(stem, valid)
}

// TestDecodeBlocksBatchRejectsEveryBitFlip flips each bit of one
// member stem's postings in a corpus below 2^32.
func TestDecodeBlocksBatchRejectsEveryBitFlip(t *testing.T) {
	c := blocksTestCompact(t, 40, 3)
	flipEveryBit(t, c, text.Stem("river"), Concept{"river": 1.0, "delta": 0.5})
}

// TestDecodeBlocksRejectsEveryBitFlip flips each bit of one member
// stem's postings whose ids and positions straddle 2^32.
func TestDecodeBlocksRejectsEveryBitFlip(t *testing.T) {
	c, concept := compactOf(wideInput())
	flipEveryBit(t, c, text.Stem("whalf"), concept)
}

// TestDecodeGroupsPathsAgree holds AppendConceptList's two paths — run
// cursors on the stack for up to 8 stems, on the heap past that — to a
// plain merge (every stem's positions, sorted, each location once at
// its highest weight) on random runs of 0 to 22 stems, repeated
// positions within a run and across runs included, appended after a
// prefix it must leave alone.
func TestDecodeGroupsPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(23)
		// Each stem holds document 4, then 9: the merge must stop at
		// the end of the run it was given.
		var at []StemAt
		best := map[int]float64{}
		for k := 0; k < n; k++ {
			var ps []Posting
			for p := 1 + rng.Intn(6); p > 0; p-- {
				ps = append(ps, Posting{Doc: 4, Pos: rng.Intn(40)})
			}
			slices.SortFunc(ps, func(a, b Posting) int { return a.Pos - b.Pos })
			ps = append(ps, Posting{Doc: 9, Pos: 1})
			s, err := decodeStem(EncodePostings(ps))
			if err != nil {
				t.Fatal(err)
			}
			score := float64(rng.Intn(5)) / 4
			at = append(at, StemAt{Arrays: s, I: s.Seek(0, 4), Score: score})
			for _, p := range ps[:len(ps)-1] {
				if w, ok := best[p.Pos]; !ok || score > w {
					best[p.Pos] = score
				}
			}
		}
		want := match.List{{Loc: -1, Score: 7}}
		for _, loc := range slices.Sorted(maps.Keys(best)) {
			want = append(want, match.Match{Loc: loc, Score: best[loc]})
		}
		if got := AppendConceptList(want[:1:1], at); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d stems): merged %v, want %v", trial, n, got, want)
		}
	}
}

// TestDecodeDocMatchesDecodeBlock holds the per-document merge the
// engine's workers run — each member stem Seek'd to the document, the
// runs there merged by AppendConceptList after a prefix it leaves
// alone — to the block view's whole-concept list for every document,
// bit for bit: over a corpus, over ids and positions past 2^32, and
// over documents held by more stems than the merge keeps on the stack.
func TestDecodeDocMatchesDecodeBlock(t *testing.T) {
	wide, wideConcept := compactOf(wideInput())
	ix := New()
	words := strings.Fields("river bank flood water delta stone bridge valley canyon ridge")
	many := Concept{}
	for d := 0; d < 20; d++ {
		ix.AddText(d, strings.Join(words[d%3:], " ")+" "+strings.Join(words[:10-d%4], " "))
	}
	for i, w := range words {
		many[w] = 1 / float64(i+1)
	}
	for _, tc := range []struct {
		name    string
		c       *Compact
		concept Concept
	}{
		{"corpus", blocksTestCompact(t, 300, 5), Concept{"river": 1.0, "bank": 0.5, "water": 0.25}},
		{"wide", wide, wideConcept},
		{"many stems", ix.Compact(), many},
	} {
		stems, err := tc.c.ConceptStems(tc.concept)
		if err != nil {
			t.Fatal(err)
		}
		bt, _ := tc.c.ConceptBlocks(tc.concept)
		seen := 0
		for i := 0; i < bt.NumBlocks(); i++ {
			docs, lists, _ := bt.DecodeBlock(i)
			for j, d := range docs {
				var at []StemAt
				for _, s := range stems {
					if k := s.Arrays.Seek(0, d); k < s.Arrays.Len() && s.Arrays.Doc(k) == d {
						at = append(at, StemAt{Arrays: s.Arrays, I: k, Score: s.Score})
					}
				}
				prefix := match.List{{Loc: -1, Score: 7}}
				got := AppendConceptList(prefix, at)
				if got[0] != prefix[0] || len(got) != 1+len(lists[j]) {
					t.Fatalf("%s doc %d: %d matches after the prefix %v, want %d", tc.name, d, len(got)-1, got[0], len(lists[j]))
				}
				for m, want := range lists[j] {
					if g := got[1+m]; g.Loc != want.Loc || math.Float64bits(g.Score) != math.Float64bits(want.Score) {
						t.Fatalf("%s doc %d match %d: %+v, view %+v", tc.name, d, m, g, want)
					}
				}
				seen++
			}
		}
		if seen == 0 {
			t.Fatalf("%s: no documents", tc.name)
		}
	}
}

// TestDecodeBlockDocsIsolatesCorruptDocument corrupts one member
// stem's postings. A stem decodes whole, so the stem is now the unit a
// corrupt byte takes down: that stem's decode fails on every use and
// every concept holding it fails to resolve, while every other stem of
// the same documents still decodes and a concept of those merges to
// Compact.ConceptList on every document.
func TestDecodeBlockDocsIsolatesCorruptDocument(t *testing.T) {
	c := blocksTestCompact(t, 60, 4)
	if _, err := c.Stem(text.Stem("water")); err != nil {
		t.Fatal(err)
	}
	CorruptPostingsForTest(c, "bank")
	for range 2 {
		if s, err := c.Stem(text.Stem("bank")); err == nil || s != nil {
			t.Fatalf("corrupt stem: %v, %v", s, err)
		}
		if _, err := c.ConceptStems(Concept{"river": 1, "bank": 0.5}); err == nil {
			t.Fatal("concept over a corrupt stem resolved")
		}
	}
	healthy := Concept{"river": 1, "water": 0.5}
	docs, lists := c.conceptDocLists(healthy)
	if want, _ := flatConceptMatches(c, healthy); !reflect.DeepEqual(docs, want) || len(docs) == 0 {
		t.Fatalf("healthy concept documents %v, want %v", docs, want)
	}
	for i, d := range docs {
		if want := c.ConceptList(d, healthy); !reflect.DeepEqual(lists[i], want) {
			t.Fatalf("doc %d: merged %v, ConceptList %v", d, lists[i], want)
		}
	}
}

// TestConceptStemsSortsAndMerges: a concept's words resolve to its
// distinct stems the index holds, ascending, each with the highest
// weight among its words; a word the index lacks adds nothing.
func TestConceptStemsSortsAndMerges(t *testing.T) {
	ix := New()
	ix.AddText(0, "floods river banks")
	c := ix.Compact()
	concept := Concept{"flooding": 0.5, "flood": 0.75, "floods": 0.25, "river": 1, "banks": 0.5, "bank": 0.6, "absent": 9}
	want := map[string]float64{}
	for w, s := range concept {
		if st := text.Stem(w); len(c.postings[st]) > 0 {
			want[st] = max(want[st], s)
		}
	}
	stems, err := c.ConceptStems(concept)
	if err != nil || len(stems) != len(want) {
		t.Fatalf("%d stems (%v), want %d", len(stems), err, len(want))
	}
	for i, s := range stems {
		if i > 0 && stems[i-1].Stem >= s.Stem {
			t.Fatalf("stems out of order: %q before %q", stems[i-1].Stem, s.Stem)
		}
		if s.Score != want[s.Stem] || s.Arrays == nil || s.Arrays.Doc(0) != 0 {
			t.Fatalf("stem %q: score %v, want %v", s.Stem, s.Score, want[s.Stem])
		}
	}
}
