package index

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"bestjoin/internal/match"
)

// testPairEntries builds a pair list exercising every record shape:
// scored records, interleaved tombstones, an all-tombstone block (at
// blockSize 3, docs 30/31/32), and sparse id gaps.
func testPairEntries() []PairEntry {
	return []PairEntry{
		{Doc: 2, OK: true, Score: 1.5, W0: match.Match{Loc: 3, Score: 0.5}, W1: match.Match{Loc: 7, Score: 1}},
		{Doc: 3},
		{Doc: 9, OK: true, Score: -0.25, W0: match.Match{Loc: 0, Score: -0.5}, W1: match.Match{Loc: 2, Score: 0.25}},
		{Doc: 10, OK: true, Score: 2.75, W0: match.Match{Loc: 11, Score: 0.9}, W1: match.Match{Loc: 12, Score: 0.8}},
		{Doc: 25, OK: true, Score: 0, W0: match.Match{Loc: 1, Score: 0}, W1: match.Match{Loc: 1, Score: 0}},
		{Doc: 27},
		{Doc: 30},
		{Doc: 31},
		{Doc: 32},
		{Doc: 1000, OK: true, Score: 0.125, W0: match.Match{Loc: 500, Score: 0.25}, W1: match.Match{Loc: 501, Score: 0.5}},
	}
}

func decodeAll(t *testing.T, pt *PairTable) []PairEntry {
	t.Helper()
	var out []PairEntry
	for i := range pt.Infos {
		es, err := pt.DecodeBlock(i)
		if err != nil {
			t.Fatalf("DecodeBlock(%d): %v", i, err)
		}
		out = append(out, es...)
	}
	return out
}

// entriesEqual compares bitwise: scores must survive the codec exactly
// or pair-served answers would differ from kernel answers.
func entriesEqual(a, b []PairEntry) bool {
	if len(a) != len(b) {
		return false
	}
	feq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].OK != b[i].OK ||
			!feq(a[i].Score, b[i].Score) ||
			a[i].W0.Loc != b[i].W0.Loc || !feq(a[i].W0.Score, b[i].W0.Score) ||
			a[i].W1.Loc != b[i].W1.Loc || !feq(a[i].W1.Score, b[i].W1.Score) {
			return false
		}
	}
	return true
}

func TestPairsRoundTrip(t *testing.T) {
	entries := testPairEntries()
	for _, blockSize := range []int{1, 2, 3, 4, 128, 0} {
		buf := EncodePairs(entries, blockSize)
		pt, err := DecodePairs(buf)
		if err != nil {
			t.Fatalf("blockSize %d: %v", blockSize, err)
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("blockSize %d: Validate: %v", blockSize, err)
		}
		if got := decodeAll(t, pt); !entriesEqual(got, entries) {
			t.Fatalf("blockSize %d: round trip changed entries:\n got %+v\nwant %+v", blockSize, got, entries)
		}
		if pt.NumDocs() != len(entries) {
			t.Fatalf("blockSize %d: NumDocs = %d, want %d", blockSize, pt.NumDocs(), len(entries))
		}
	}
}

func TestPairsAllTombstoneBlockMax(t *testing.T) {
	// At blockSize 3 the records 27/30/31 and 32/... split so that one
	// block (30,31,32... actually 27/30/31) is all tombstones; its skip
	// entry must carry the −Inf sentinel and still round-trip.
	pt, err := DecodePairs(EncodePairs(testPairEntries(), 3))
	if err != nil {
		t.Fatal(err)
	}
	sawNegInf := false
	for _, info := range pt.Infos {
		if math.IsInf(info.MaxScore, -1) {
			sawNegInf = true
		}
	}
	if !sawNegInf {
		t.Fatal("no all-tombstone block produced the −Inf max-score sentinel")
	}
}

func TestEncodePairsEmpty(t *testing.T) {
	if buf := EncodePairs(nil, 0); buf != nil {
		t.Fatalf("EncodePairs(nil) = %v, want nil", buf)
	}
	pt, err := DecodePairs(nil)
	if err != nil || pt != nil {
		t.Fatalf("DecodePairs(nil) = %v, %v; want nil, nil", pt, err)
	}
}

func TestPairTableFindBlock(t *testing.T) {
	pt, err := DecodePairs(EncodePairs(testPairEntries(), 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range testPairEntries() {
		i := pt.FindBlock(ent.Doc)
		if i < 0 {
			t.Fatalf("FindBlock(%d) = -1, want a block", ent.Doc)
		}
		if pt.Infos[i].FirstDoc > ent.Doc || pt.Infos[i].LastDoc < ent.Doc {
			t.Fatalf("FindBlock(%d) = %d with range [%d,%d]", ent.Doc, i, pt.Infos[i].FirstDoc, pt.Infos[i].LastDoc)
		}
	}
	if i := pt.FindBlock(2000); i != -1 {
		t.Fatalf("FindBlock past the end = %d, want -1", i)
	}
}

// TestDecodePairsRejectsHostileBytes drives crafted buffers at every
// skip-table and payload validation layer.
func TestDecodePairsRejectsHostileBytes(t *testing.T) {
	valid := EncodePairs(testPairEntries(), 4)

	// mutate copies valid and applies f; decode must fail somewhere
	// (skip table or any block).
	reject := func(name string, buf []byte) {
		t.Helper()
		pt, err := DecodePairs(buf)
		if err != nil {
			return
		}
		if err := pt.Validate(); err == nil {
			t.Errorf("%s: hostile buffer decoded without error", name)
		}
	}

	// Block count far past what the buffer can hold.
	reject("huge block count", binary.AppendUvarint(nil, math.MaxUint64))
	reject("zero block count", binary.AppendUvarint(nil, 0))

	// Truncations at every prefix length.
	for cut := 1; cut < len(valid); cut++ {
		reject("truncation", valid[:cut])
	}
	// Trailing garbage.
	reject("trailing bytes", append(append([]byte(nil), valid...), 0xAA))

	// A skip table whose recorded max overstates the content: block-max
	// skipping would be unsound in the other direction, but any mismatch
	// must be rejected.
	crafted := EncodePairs([]PairEntry{
		{Doc: 1, OK: true, Score: 1, W0: match.Match{Loc: 0, Score: 1}, W1: match.Match{Loc: 1, Score: 1}},
	}, 0)
	// The max-score float64 sits after varints nBlocks=1, gap=1, span=0,
	// nDocs=1 — 4 bytes in.
	lied := append([]byte(nil), crafted...)
	binary.LittleEndian.PutUint64(lied[4:], math.Float64bits(99.0))
	reject("overstated block max", lied)
	binary.LittleEndian.PutUint64(lied[4:], math.Float64bits(math.NaN()))
	reject("NaN block max", lied)
	binary.LittleEndian.PutUint64(lied[4:], math.Float64bits(math.Inf(1)))
	reject("+Inf block max", lied)
}

// TestPairsPersistRoundTrip pins the section-5 story end to end:
// registered pair lists survive Marshal → LoadCompact bitwise.
func TestPairsPersistRoundTrip(t *testing.T) {
	c, a, b, spec := pairTestIndex(t)
	want, ok := c.ConceptPairs(a, b, spec)
	if !ok {
		t.Fatal("pair not registered")
	}

	loaded, err := LoadCompact(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ConceptPairsCount() != c.ConceptPairsCount() {
		t.Fatalf("pair count %d, want %d", loaded.ConceptPairsCount(), c.ConceptPairsCount())
	}
	// Lookup must work in both concept orders.
	for _, order := range [][2]Concept{{a, b}, {b, a}} {
		got, ok := loaded.ConceptPairs(order[0], order[1], spec)
		if !ok {
			t.Fatal("pair lost across the round trip")
		}
		if !entriesEqual(decodeAll(t, got), decodeAll(t, want)) {
			t.Fatal("pair entries changed across the round trip")
		}
	}
	// The wrong fingerprint must miss: a pair list only answers the
	// exact kernel that built it.
	if _, ok := loaded.ConceptPairs(a, b, spec+1); ok {
		t.Fatal("pair served under a different kernel fingerprint")
	}
}

// TestPairsEmptySetRoundTrip pins that an index with no pairs
// marshals without a section 5 and loads cleanly — the "feature
// absent" shape every pre-pairs reader and writer produces.
func TestPairsEmptySetRoundTrip(t *testing.T) {
	c := framedTestIndex(t)
	if c.ConceptPairsCount() != 0 {
		t.Fatal("test premise broken: index has pairs")
	}
	loaded, err := LoadCompact(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ConceptPairsCount() != 0 {
		t.Fatalf("pairs appeared from nowhere: %d", loaded.ConceptPairsCount())
	}
	if _, ok := loaded.ConceptPairs(Concept{"lenovo": 1}, Concept{"nba": 1}, 1); ok {
		t.Fatal("ConceptPairs hit on an index with no pairs")
	}
}

// TestPairsMarshalRejectsEveryBitFlip extends the bit-rot acceptance
// test to a pair-bearing index: the section-5 CRC leaves no pair byte
// unprotected.
func TestPairsMarshalRejectsEveryBitFlip(t *testing.T) {
	c, _, _, _ := pairTestIndex(t)
	valid := c.Marshal()
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

// pairTestJoin is a deterministic stand-in kernel: score and witness
// derived purely from the two match lists.
func pairTestJoin(lists match.Lists) (match.Set, float64, bool) {
	a, b := lists[0], lists[1]
	if len(a) == 0 || len(b) == 0 {
		return nil, 0, false
	}
	score := a[0].Score + b[0].Score + float64(a[len(a)-1].Loc-b[0].Loc)*0.001
	return match.Set{a[0], b[len(b)-1]}, score, true
}

// pairTestIndex builds a small corpus with one registered pair list
// (plus the other optional sections, so section ordering is exercised)
// and returns the concepts and fingerprint it was registered under.
func pairTestIndex(t *testing.T) (*Compact, Concept, Concept, uint64) {
	t.Helper()
	c := framedTestIndex(t)
	a := Concept{"lenovo": 1, "dell": 0.9}
	b := Concept{"nba": 1, "olympics": 0.8, "basketball": 0.7}
	const spec = uint64(0xfeedbeef)
	if n, ok := c.AddConceptPairs(a, b, spec, pairTestJoin); !ok || n == 0 {
		t.Fatalf("AddConceptPairs failed: bytes=%d ok=%v", n, ok)
	}
	return c, a, b, spec
}

func TestAddConceptPairsMatchesJoin(t *testing.T) {
	c, a, b, spec := pairTestIndex(t)
	pt, ok := c.ConceptPairs(a, b, spec)
	if !ok {
		t.Fatal("registered pair not found")
	}
	entries := decodeAll(t, pt)

	// The list's doc set must be exactly the concepts' intersection,
	// and every scored record must replay the join bitwise.
	docsA, listsA := c.conceptDocLists(a)
	docsB, listsB := c.conceptDocLists(b)
	k := 0
	for i, j := 0, 0; i < len(docsA) && j < len(docsB); {
		switch {
		case docsA[i] < docsB[j]:
			i++
		case docsA[i] > docsB[j]:
			j++
		default:
			if k >= len(entries) || entries[k].Doc != docsA[i] {
				t.Fatalf("pair list missing shared doc %d", docsA[i])
			}
			set, score, okJoin := pairTestJoin(match.Lists{listsA[i], listsB[j]})
			ent := entries[k]
			if ent.OK != okJoin {
				t.Fatalf("doc %d: OK=%v, join ok=%v", ent.Doc, ent.OK, okJoin)
			}
			if okJoin {
				if math.Float64bits(ent.Score) != math.Float64bits(score) {
					t.Fatalf("doc %d: score %v, join %v", ent.Doc, ent.Score, score)
				}
				if ent.W0 != set[0] || ent.W1 != set[1] {
					t.Fatalf("doc %d: witness %v/%v, join %v", ent.Doc, ent.W0, ent.W1, set)
				}
			}
			k++
			i++
			j++
		}
	}
	if k != len(entries) {
		t.Fatalf("pair list has %d extra records", len(entries)-k)
	}

	// Re-registration must be rejected: the first build wins.
	if _, ok := c.AddConceptPairs(b, a, spec, pairTestJoin); ok {
		t.Fatal("duplicate registration accepted")
	}
	// An empty intersection registers nothing.
	if _, ok := c.AddConceptPairs(a, Concept{"nosuchword": 1}, spec, pairTestJoin); ok {
		t.Fatal("empty-intersection pair registered")
	}
}

func TestAddConceptPairsRejectsUnrepresentable(t *testing.T) {
	mk := func() (*Compact, Concept, Concept) {
		c := framedTestIndex(t)
		return c, Concept{"lenovo": 1}, Concept{"nba": 1}
	}

	// A ±Inf score cannot be stored exactly: the whole pair aborts.
	c, a, b := mk()
	if _, ok := c.AddConceptPairs(a, b, 1, func(match.Lists) (match.Set, float64, bool) {
		return match.Set{{}, {}}, math.Inf(1), true
	}); ok {
		t.Fatal("+Inf score registered")
	}
	// A malformed witness (not exactly two matches) aborts.
	c, a, b = mk()
	if _, ok := c.AddConceptPairs(a, b, 1, func(match.Lists) (match.Set, float64, bool) {
		return match.Set{{}}, 1, true
	}); ok {
		t.Fatal("one-match witness registered")
	}
	// Non-finite concept weights abort.
	c, _, b = mk()
	if _, ok := c.AddConceptPairs(Concept{"lenovo": math.NaN()}, b, 1, pairTestJoin); ok {
		t.Fatal("NaN concept weight registered")
	}
	// A NaN join score is a tombstone, not an abort: the kernel path
	// would likewise evaluate the doc and offer nothing.
	c, a, b = mk()
	if _, ok := c.AddConceptPairs(a, b, 1, func(match.Lists) (match.Set, float64, bool) {
		return nil, math.NaN(), true
	}); !ok {
		t.Fatal("all-tombstone pair (NaN scores) rejected")
	}
	pt, ok := c.ConceptPairs(a, b, 1)
	if !ok {
		t.Fatal("tombstone pair not found")
	}
	for _, ent := range decodeAll(t, pt) {
		if ent.OK {
			t.Fatal("NaN join score produced a scored record")
		}
	}
}

// TestPartitionPreservesPairScores pins that doc-partitioning splits
// every pair list by shard with scores and witnesses bitwise intact.
func TestPartitionPreservesPairScores(t *testing.T) {
	c, a, b, spec := pairTestIndex(t)
	whole, _ := c.ConceptPairs(a, b, spec)
	all := decodeAll(t, whole)

	for _, n := range []int{2, 3} {
		parts, err := c.Partition(n)
		if err != nil {
			t.Fatal(err)
		}
		var merged []PairEntry
		for s, p := range parts {
			pt, ok := p.ConceptPairs(a, b, spec)
			if !ok {
				continue // shard holds none of the pair's docs
			}
			for _, ent := range decodeAll(t, pt) {
				if ShardOf(ent.Doc, n) != s {
					t.Fatalf("n=%d: doc %d landed in shard %d", n, ent.Doc, s)
				}
				merged = append(merged, ent)
			}
		}
		// ShardOf partitions contiguous ranges... merge by doc order.
		sortPairEntries(merged)
		if !entriesEqual(merged, all) {
			t.Fatalf("n=%d: partitioned pair entries differ from the whole", n)
		}
	}
}

func sortPairEntries(es []PairEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Doc < es[j-1].Doc; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// TestCorruptPairHooks pins the two test hooks other packages' chaos
// tests build on: whole-list corruption panics at lookup, payload
// corruption survives lookup but fails every block decode.
func TestCorruptPairHooks(t *testing.T) {
	c, a, b, spec := pairTestIndex(t)
	CorruptConceptPairPayloadForTest(c, a, b, spec)
	pt, ok := c.ConceptPairs(a, b, spec)
	if !ok {
		t.Fatal("payload corruption must keep the skip table loadable")
	}
	for i := range pt.Infos {
		if _, err := pt.DecodeBlock(i); err == nil {
			t.Fatalf("block %d decoded after payload corruption", i)
		}
	}

	CorruptConceptPairsForTest(c, a, b, spec)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ConceptPairs did not panic on whole-list corruption")
			}
		}()
		c.ConceptPairs(a, b, spec)
	}()
}

// TestForkPairsOwnsItsRegistry: a fork starts with the parent's lists,
// shares its posting bytes, and registers new lists without the parent
// seeing them — the property that lets pair lists be built beside an
// index that is serving queries.
func TestForkPairsOwnsItsRegistry(t *testing.T) {
	c, a, b, spec := pairTestIndex(t)
	parent := c.Marshal()
	fork := c.ForkPairs()
	if got := fork.PairSpecs(); len(got) != 1 || got[0] != spec {
		t.Fatalf("fork's fingerprints %x, want [%x]", got, spec)
	}
	if _, ok := fork.ConceptPairs(a, b, spec); !ok {
		t.Fatal("fork lost the parent's list")
	}
	if n, ok := fork.AddConceptPairs(a, b, spec-1, pairTestJoin); !ok || n == 0 {
		t.Fatal("AddConceptPairs on the fork failed")
	}
	if n, ok := fork.AddConceptPairs(a, Concept{"partnership": 1}, spec-1, pairTestJoin); !ok || n == 0 {
		t.Fatal("AddConceptPairs on the fork failed")
	}
	if got := fork.PairSpecs(); len(got) != 2 || got[0] != spec-1 || got[1] != spec {
		t.Fatalf("fork's fingerprints %x, want [%x %x]", got, spec-1, spec)
	}
	if c.ConceptPairsCount() != 1 || !bytes.Equal(c.Marshal(), parent) {
		t.Fatal("registering on the fork changed the parent")
	}
	if fork.Docs() != c.Docs() || fork.Bytes() != c.Bytes() {
		t.Fatal("fork does not serve the parent's postings")
	}
	// An index with no lists forks to one that can still register them.
	bare := framedTestIndex(t).ForkPairs()
	if len(bare.PairSpecs()) != 0 {
		t.Fatal("bare fork reports fingerprints")
	}
	if _, ok := bare.AddConceptPairs(a, b, spec, pairTestJoin); !ok {
		t.Fatal("AddConceptPairs on a bare fork failed")
	}
}
