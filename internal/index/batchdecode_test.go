package index

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// Codec-level differential: a buffer produced by EncodeBlocksBatch
// must decode to exactly the BlockTable its varint twin does — same
// palette, same skip entries, same directories, same match lists, bit
// for bit — across block sizes that split documents one per block,
// mid-block, and all in one block.
func TestBatchRoundTripMatchesVarintDecode(t *testing.T) {
	c := blocksTestCompact(t, 300, 1)
	concept := Concept{text.Stem("river"): 1.0, text.Stem("bank"): 0.5, text.Stem("water"): 0.25}
	docs, lists := flatConceptMatches(c, concept)
	for _, size := range []int{1, 7, 64, 0} {
		buf, ok := EncodeBlocksBatch(docs, lists, size)
		if !ok {
			t.Fatalf("size %d: batch encode refused an ordinary corpus", size)
		}
		bb, err := DecodeBlocksBatch(buf)
		if err != nil {
			t.Fatalf("size %d: DecodeBlocksBatch: %v", size, err)
		}
		bv, err := DecodeBlocks(EncodeBlocks(docs, lists, size))
		if err != nil {
			t.Fatalf("size %d: DecodeBlocks: %v", size, err)
		}
		if len(bb.Palette) != len(bv.Palette) {
			t.Fatalf("size %d: palette %d entries (batch) vs %d (varint)", size, len(bb.Palette), len(bv.Palette))
		}
		for i := range bb.Palette {
			if bb.Palette[i] != bv.Palette[i] {
				t.Fatalf("size %d: palette entry %d differs: %v vs %v", size, i, bb.Palette[i], bv.Palette[i])
			}
		}
		if bb.NumBlocks() != bv.NumBlocks() {
			t.Fatalf("size %d: %d blocks (batch) vs %d (varint)", size, bb.NumBlocks(), bv.NumBlocks())
		}
		for i := 0; i < bb.NumBlocks(); i++ {
			ib, iv := bb.Infos[i], bv.Infos[i]
			if ib.FirstDoc != iv.FirstDoc || ib.LastDoc != iv.LastDoc ||
				ib.MaxIdx != iv.MaxIdx || ib.MaxScore != iv.MaxScore {
				t.Fatalf("size %d: block %d skip entry %+v (batch) vs %+v (varint)", size, i, ib, iv)
			}
			dirB, err := bb.DecodeDocs(i)
			if err != nil {
				t.Fatalf("size %d: batch DecodeDocs(%d): %v", size, i, err)
			}
			dirV, err := bv.DecodeDocs(i)
			if err != nil {
				t.Fatalf("size %d: varint DecodeDocs(%d): %v", size, i, err)
			}
			if len(dirB) != len(dirV) {
				t.Fatalf("size %d: block %d directory sizes differ", size, i)
			}
			for j := range dirB {
				if dirB[j] != dirV[j] {
					t.Fatalf("size %d: block %d directory doc %d: %d vs %d", size, i, j, dirB[j], dirV[j])
				}
			}
			db, lb, err := bb.DecodeBlock(i)
			if err != nil {
				t.Fatalf("size %d: batch DecodeBlock(%d): %v", size, i, err)
			}
			dv, lv, err := bv.DecodeBlock(i)
			if err != nil {
				t.Fatalf("size %d: varint DecodeBlock(%d): %v", size, i, err)
			}
			if len(db) != len(dv) {
				t.Fatalf("size %d: block %d doc counts differ", size, i)
			}
			for j := range db {
				if db[j] != dv[j] {
					t.Fatalf("size %d: block %d doc %d: %d vs %d", size, i, j, db[j], dv[j])
				}
				if len(lb[j]) != len(lv[j]) {
					t.Fatalf("size %d: block %d doc %d list sizes differ", size, i, db[j])
				}
				for m := range lb[j] {
					if lb[j][m] != lv[j][m] {
						t.Fatalf("size %d: block %d doc %d match %d: %+v vs %+v",
							size, i, db[j], m, lb[j][m], lv[j][m])
					}
				}
			}
		}
	}
}

// Group-varint values cap at uint32; any input needing more must make
// EncodeBlocksBatch report ok=false (varint fallback), never emit a
// truncated buffer.
func TestEncodeBlocksBatchOverflowFallsBack(t *testing.T) {
	cases := []struct {
		name  string
		docs  []int
		lists []match.List
	}{
		{"doc delta", []int{0, math.MaxUint32 + 10},
			[]match.List{{{Loc: 1, Score: 1}}, {{Loc: 1, Score: 1}}}},
		{"first gap", []int{math.MaxUint32 + 10},
			[]match.List{{{Loc: 1, Score: 1}}}},
		{"position delta", []int{0},
			[]match.List{{{Loc: math.MaxUint32 + 10, Score: 1}}}},
	}
	for _, tc := range cases {
		if buf, ok := EncodeBlocksBatch(tc.docs, tc.lists, 16); ok || buf != nil {
			t.Errorf("%s: overflowing input batch-encoded (ok=%v, %d bytes)", tc.name, ok, len(buf))
		}
		// The varint layout has no such cap: the same input must encode
		// and decode there, which is what makes the fallback lossless.
		bt, err := DecodeBlocks(EncodeBlocks(tc.docs, tc.lists, 16))
		if err != nil || bt.Validate() != nil {
			t.Errorf("%s: varint fallback cannot represent the input: %v", tc.name, err)
		}
	}
	if buf, ok := EncodeBlocksBatch(nil, nil, 16); !ok || buf != nil {
		t.Errorf("empty input: got (%v, %v), want (nil, true)", buf, ok)
	}
}

// AddConceptBlocks must prefer the batched layout when the concept's
// values fit uint32 — which any corpus within MaxUint32 documents and
// positions does — while AddConceptBlocksSized stays varint-only for
// the tests and corruption hooks that poke varint buffers.
func TestAddConceptBlocksPrefersBatch(t *testing.T) {
	c := blocksTestCompact(t, 60, 2)
	concept := Concept{text.Stem("river"): 1.0, text.Stem("delta"): 0.5}
	c.AddConceptBlocks(concept)
	if _, ok := c.batch[ConceptKey(concept)]; !ok {
		t.Fatal("AddConceptBlocks did not store the batched layout")
	}
	if _, ok := c.blocks[ConceptKey(concept)]; ok {
		t.Fatal("AddConceptBlocks stored both layouts for one concept")
	}
	other := Concept{text.Stem("stone"): 1.0}
	c.AddConceptBlocksSized(other, 8)
	if _, ok := c.batch[ConceptKey(other)]; ok {
		t.Fatal("AddConceptBlocksSized stored the batched layout")
	}
	if !c.AddConceptBlocksBatchSized(other, 8) {
		t.Fatal("AddConceptBlocksBatchSized reported fallback on an ordinary concept")
	}
	bt, ok := c.ConceptBlocks(concept)
	if !ok || bt.Validate() != nil {
		t.Fatalf("batched concept not servable: ok=%v", ok)
	}
}

// Hostile-bytes discipline for the batched decoder, mirroring
// TestDecodeBlocksRejectsHostileBytes: truncations at every length,
// giant counts, NaN palette bits, and a skip entry lying about its
// block's max score index must all be rejected — never panic, never
// accepted.
func TestDecodeBlocksBatchRejectsHostileBytes(t *testing.T) {
	valid, ok := EncodeBlocksBatch(
		[]int{1, 2, 5},
		[]match.List{
			{{Loc: 3, Score: 0.5}, {Loc: 7, Score: 1.0}},
			{{Loc: 1, Score: 0.5}},
			{{Loc: 2, Score: 1.0}},
		}, 2)
	if !ok {
		t.Fatal("batch encode refused the valid input")
	}
	if bt, err := DecodeBlocksBatch(valid); err != nil || bt.Validate() != nil {
		t.Fatalf("valid buffer rejected: %v", err)
	}

	reject := func(name string, b []byte) {
		t.Helper()
		bt, err := DecodeBlocksBatch(b)
		if err != nil {
			return
		}
		if err := bt.Validate(); err == nil {
			t.Errorf("%s: hostile buffer accepted", name)
		}
	}

	for i := 1; i < len(valid); i++ {
		reject("truncated", valid[:i])
	}
	reject("giant palette count", binary.AppendUvarint(nil, math.MaxUint64))
	reject("nan palette", append(binary.AppendUvarint(nil, 1),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...))
	giantBlocks := binary.AppendUvarint(nil, 1)
	giantBlocks = binary.LittleEndian.AppendUint64(giantBlocks, math.Float64bits(1))
	reject("giant block count", binary.AppendUvarint(giantBlocks, math.MaxUint64))

	// Lying block max: skip entry claims maxIdx 0 while the match area
	// uses palette index 1. Accepting it would understate a block-max
	// bound and let pruning drop real answers.
	var payload []byte
	payload = binary.AppendUvarint(payload, 1)              // one doc
	payload = appendGroups(payload, []uint32{1})            // directory: one match
	payload = appendGroups(payload, []uint32{2, 1})         // match: pos 2, scoreIdx 1
	lie := binary.AppendUvarint(nil, 2)                     // palette: 0.5, 1.0
	lie = binary.LittleEndian.AppendUint64(lie, math.Float64bits(0.5))
	lie = binary.LittleEndian.AppendUint64(lie, math.Float64bits(1.0))
	lie = binary.AppendUvarint(lie, 1) // one block
	lie = appendGroups(lie, []uint32{3, 0, uint32(len(payload)), 0})
	reject("lying block max", append(lie, payload...))

	// The honest twin (maxIdx 1) must decode.
	honest := binary.AppendUvarint(nil, 2)
	honest = binary.LittleEndian.AppendUint64(honest, math.Float64bits(0.5))
	honest = binary.LittleEndian.AppendUint64(honest, math.Float64bits(1.0))
	honest = binary.AppendUvarint(honest, 1)
	honest = appendGroups(honest, []uint32{3, 0, uint32(len(payload)), 1})
	bt, err := DecodeBlocksBatch(append(honest, payload...))
	if err != nil || bt.Validate() != nil {
		t.Fatalf("honest crafted buffer rejected: %v", err)
	}
}

// Every single-bit corruption of a registered batch buffer must either
// be rejected or decode to a still-valid table — never panic, never
// read out of bounds (the -race build also catches unsafe sharing).
func TestDecodeBlocksBatchRejectsEveryBitFlip(t *testing.T) {
	c := blocksTestCompact(t, 40, 3)
	concept := Concept{text.Stem("river"): 1.0, text.Stem("delta"): 0.5}
	if !c.AddConceptBlocksBatchSized(concept, 8) {
		t.Fatal("batch layout not registered")
	}
	valid := c.batch[ConceptKey(concept)]
	if len(valid) == 0 {
		t.Fatal("no batch buffer to mutate")
	}
	for i := 0; i < len(valid)*8; i++ {
		mut := make([]byte, len(valid))
		copy(mut, valid)
		mut[i/8] ^= 1 << (i % 8)
		bt, err := DecodeBlocksBatch(mut)
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

// decodeGroups' two paths — the branch-free ≥17-byte fast path and the
// byte-checked tail — must agree on every stream, including streams
// short enough that the fast path never runs.
func TestDecodeGroupsPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(23)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(rng.Uint64() >> uint(32+rng.Intn(25)))
		}
		enc := appendGroups(nil, vals)
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
			if got[i] != vals[i] || tight[i] != vals[i] {
				t.Fatalf("trial %d: value %d decoded %d (padded) / %d (tight), want %d",
					trial, i, got[i], tight[i], vals[i])
			}
		}
	}
}

// The persisted form: an index whose concepts use the batched layout
// must round-trip through Marshal/LoadCompact with the layout — and
// the decoded content — intact, a varint-only index must not grow a
// batch section, and the legacy unframed layout must still load.
func TestPersistBatchSectionRoundTrip(t *testing.T) {
	c := blocksTestCompact(t, 80, 5)
	batched := Concept{text.Stem("river"): 1.0, text.Stem("bank"): 0.5}
	varint := Concept{text.Stem("stone"): 0.75}
	if !c.AddConceptBlocksBatchSized(batched, 8) {
		t.Fatal("batch layout not registered")
	}
	c.AddConceptBlocksSized(varint, 8)

	loaded, err := LoadCompact(c.Marshal())
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if got, want := loaded.ConceptBlocksCount(), c.ConceptBlocksCount(); got != want {
		t.Fatalf("round trip changed block-table count: %d vs %d", got, want)
	}
	if _, ok := loaded.batch[ConceptKey(batched)]; !ok {
		t.Fatal("batched layout lost in round trip")
	}
	if _, ok := loaded.blocks[ConceptKey(varint)]; !ok {
		t.Fatal("varint layout lost in round trip")
	}
	for _, concept := range []Concept{batched, varint} {
		want, ok := c.ConceptBlocks(concept)
		if !ok {
			t.Fatal("source concept not servable")
		}
		got, ok := loaded.ConceptBlocks(concept)
		if !ok {
			t.Fatal("loaded concept not servable")
		}
		if got.NumBlocks() != want.NumBlocks() {
			t.Fatalf("block count changed: %d vs %d", got.NumBlocks(), want.NumBlocks())
		}
		for i := 0; i < want.NumBlocks(); i++ {
			dw, lw, err := want.DecodeBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			dg, lg, err := got.DecodeBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			if len(dw) != len(dg) {
				t.Fatalf("block %d doc count changed", i)
			}
			for j := range dw {
				if dw[j] != dg[j] || len(lw[j]) != len(lg[j]) {
					t.Fatalf("block %d doc %d changed", i, j)
				}
				for m := range lw[j] {
					if lw[j][m] != lg[j][m] {
						t.Fatalf("block %d doc %d match %d changed", i, j, m)
					}
				}
			}
		}
	}

	// A varint-only index must serialize without a batch section — the
	// bytes older readers understood.
	old := blocksTestCompact(t, 30, 6)
	old.AddConceptBlocksSized(varint, 8)
	if _, err := LoadCompact(old.Marshal()); err != nil {
		t.Fatalf("varint-only round trip failed: %v", err)
	}
	if len(old.batch) != 0 {
		t.Fatal("varint-only index grew a batch map")
	}
}
