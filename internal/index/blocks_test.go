package index

import (
	"context"
	"encoding/binary"
	"errors"
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
	// Registered at several block sizes, and — size −1 — built on
	// demand from the postings of an index with nothing registered.
	for _, size := range []int{1, 7, 64, 0, -1} {
		var bt *BlockTable
		if size < 0 {
			var err error
			if bt, err = blocksTestCompact(t, 300, 1).BuildBlockTable(context.Background(), concept); err != nil {
				t.Fatalf("BuildBlockTable: %v", err)
			}
		} else {
			c.AddConceptBlocksSized(concept, size)
			var ok bool
			if bt, ok = c.ConceptBlocks(concept); !ok {
				t.Fatalf("size %d: concept blocks not registered", size)
			}
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

// TestBuildBlockTableEdges pins the on-demand builder's contract at
// its edges: a concept absent from the corpus is an empty table, not an
// error; a non-finite weight is an error; and a build whose context
// has ended reports that context's error instead of a table.
func TestBuildBlockTableEdges(t *testing.T) {
	c := blocksTestCompact(t, 50, 2)
	bt, err := c.BuildBlockTable(context.Background(), Concept{"nowhere": 1})
	if err != nil || bt == nil || bt.NumBlocks() != 0 || bt.FindBlock(3) != -1 {
		t.Fatalf("absent concept: table %+v, err %v; want an empty table", bt, err)
	}
	if _, err := c.BuildBlockTable(context.Background(), Concept{"river": math.NaN()}); err == nil {
		t.Fatal("NaN weight built a table")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if bt, err := c.BuildBlockTable(ctx, Concept{"river": 1}); !errors.Is(err, context.Canceled) || bt != nil {
		t.Fatalf("cancelled build: table %v, err %v; want context.Canceled", bt, err)
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

func TestAddConceptBlocksSkipsDegenerate(t *testing.T) {
	c := blocksTestCompact(t, 20, 2)
	c.AddConceptBlocks(Concept{text.Stem("river"): math.NaN()})
	c.AddConceptBlocks(Concept{text.Stem("river"): math.Inf(1)})
	c.AddConceptBlocks(Concept{"zzz-absent-stem": 1.0})
	if n := c.ConceptBlocksCount(); n != 0 {
		t.Fatalf("ConceptBlocksCount = %d, want 0", n)
	}
	if _, ok := c.ConceptBlocks(Concept{text.Stem("river"): math.NaN()}); ok {
		t.Fatal("ConceptBlocks returned ok for unregistered concept")
	}
}

// TestDecodeBlocksRejectsHostileBytes exercises the bounded-decode
// contract on crafted corruption, including the soundness-critical
// lying-block-max case.
func TestDecodeBlocksRejectsHostileBytes(t *testing.T) {
	valid := EncodeBlocks(
		[]int{1, 2, 5},
		[]match.List{
			{{Loc: 3, Score: 0.5}, {Loc: 7, Score: 1.0}},
			{{Loc: 1, Score: 0.5}},
			{{Loc: 2, Score: 1.0}},
		}, 2)
	if _, err := DecodeBlocks(valid); err != nil {
		t.Fatalf("valid buffer rejected: %v", err)
	}

	reject := func(name string, b []byte) {
		t.Helper()
		bt, err := DecodeBlocks(b)
		if err != nil {
			return
		}
		if err := bt.Validate(); err == nil {
			t.Errorf("%s: hostile buffer accepted", name)
		}
	}

	// Truncation at every length must fail somewhere in decode or
	// validate, never panic or read out of range.
	for i := 1; i < len(valid); i++ {
		reject("truncated", valid[:i])
	}
	reject("giant palette count", binary.AppendUvarint(nil, math.MaxUint64))
	reject("nan palette", append(binary.AppendUvarint(nil, 1),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...))

	// Lying block max: a block whose skip entry claims maxIdx 0 while
	// the content uses palette index 1. Accepting it would let hostile
	// bytes understate an upper bound and unsoundly prune real answers.
	lie := binary.AppendUvarint(nil, 2) // palette: 0.5, 1.0
	lie = binary.LittleEndian.AppendUint64(lie, math.Float64bits(0.5))
	lie = binary.LittleEndian.AppendUint64(lie, math.Float64bits(1.0))
	lie = binary.AppendUvarint(lie, 1) // one block
	var payload []byte
	payload = binary.AppendUvarint(payload, 1) // one doc
	payload = binary.AppendUvarint(payload, 1) // one match
	payload = binary.AppendUvarint(payload, 2) // pos 2
	payload = binary.AppendUvarint(payload, 1) // scoreIdx 1 (score 1.0)
	lie = binary.AppendUvarint(lie, 3)                    // firstDoc 3
	lie = binary.AppendUvarint(lie, 0)                    // span 0
	lie = binary.AppendUvarint(lie, uint64(len(payload))) // payload length
	lie = binary.AppendUvarint(lie, 0)                    // claimed maxIdx 0 — a lie
	reject("lying block max", append(lie, payload...))

	// The honest twin (maxIdx 1) must decode.
	honest := binary.AppendUvarint(nil, 2)
	honest = binary.LittleEndian.AppendUint64(honest, math.Float64bits(0.5))
	honest = binary.LittleEndian.AppendUint64(honest, math.Float64bits(1.0))
	honest = binary.AppendUvarint(honest, 1)
	honest = binary.AppendUvarint(honest, 3)
	honest = binary.AppendUvarint(honest, 0)
	honest = binary.AppendUvarint(honest, uint64(len(payload)))
	honest = binary.AppendUvarint(honest, 1)
	bt, err := DecodeBlocks(append(honest, payload...))
	if err != nil {
		t.Fatalf("honest buffer rejected: %v", err)
	}
	if err := bt.Validate(); err != nil {
		t.Fatalf("honest buffer failed validation: %v", err)
	}
	if bt.Infos[0].MaxScore != 1.0 {
		t.Fatalf("MaxScore = %v, want 1.0", bt.Infos[0].MaxScore)
	}
}

// TestDecodeBlocksRejectsEveryBitFlip flips each bit of a valid
// buffer: every mutation must either fail to decode or still satisfy
// every invariant — never panic, never read out of range. (Framing
// CRCs catch these at load; this pins the codec's own robustness.)
func TestDecodeBlocksRejectsEveryBitFlip(t *testing.T) {
	c := blocksTestCompact(t, 40, 3)
	concept := Concept{text.Stem("river"): 1.0, text.Stem("delta"): 0.5}
	c.AddConceptBlocksSized(concept, 8)
	valid := c.blocks[ConceptKey(concept)]
	if len(valid) == 0 {
		t.Fatal("no block buffer to mutate")
	}
	for i := 0; i < len(valid)*8; i++ {
		mut := make([]byte, len(valid))
		copy(mut, valid)
		mut[i/8] ^= 1 << (i % 8)
		bt, err := DecodeBlocks(mut)
		if err != nil {
			continue
		}
		// A flip may survive decode (e.g. toggling a score bit keeps a
		// coherent buffer) — then the result must still be structurally
		// valid end to end.
		if err := bt.Validate(); err != nil {
			continue
		}
	}
}
