package index

import (
	"bytes"
	"math"
	"sort"
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

// TestPairsRoundTrip packs every record shape at several block sizes
// and unpacks it bit for bit, with skip entries that bound each
// block's documents.
func TestPairsRoundTrip(t *testing.T) {
	entries := testPairEntries()
	for _, blockSize := range []int{1, 2, 3, 4, 128, 0} {
		pt, _ := newPairTable(entries, blockSize)
		assertSkipTable(t, pt)
		if got := decodeAll(t, pt); !entriesEqual(got, entries) {
			t.Fatalf("blockSize %d: round trip changed entries:\n got %+v\nwant %+v", blockSize, got, entries)
		}
	}
}

// TestEncodePairsEmpty: no records pack to no table, charged nothing.
func TestEncodePairsEmpty(t *testing.T) {
	if pt, size := newPairTable(nil, 0); pt != nil || size != 0 {
		t.Fatalf("newPairTable(nil) = %v, %d; want nil, 0", pt, size)
	}
}

// TestPairTableSize pins the bytes a list is charged — what the pair
// budget counts — on the test records: a change here changes which
// lists a budget registers. The figures are the lengths of the varint
// buffers pair lists were once stored as.
func TestPairTableSize(t *testing.T) {
	for _, tc := range []struct{ blockSize, want int }{{1, 264}, {3, 198}, {4, 188}, {0, 167}} {
		if _, size := newPairTable(testPairEntries(), tc.blockSize); size != tc.want {
			t.Errorf("blockSize %d: charged %d bytes, want %d", tc.blockSize, size, tc.want)
		}
	}
}

func TestPairTableFindBlock(t *testing.T) {
	pt, _ := newPairTable(testPairEntries(), 4)
	for _, ent := range testPairEntries() {
		i := findBlock(pt, ent.Doc)
		if i < 0 {
			t.Fatalf("FindBlock(%d) = -1, want a block", ent.Doc)
		}
		if pt.Infos[i].FirstDoc > ent.Doc || pt.Infos[i].LastDoc < ent.Doc {
			t.Fatalf("FindBlock(%d) = %d with range [%d,%d]", ent.Doc, i, pt.Infos[i].FirstDoc, pt.Infos[i].LastDoc)
		}
	}
	if i := findBlock(pt, 2000); i != -1 {
		t.Fatalf("FindBlock past the end = %d, want -1", i)
	}
}

// TestPairsPersistRoundTrip pins that pair lists stay out of the
// file: an index with registered lists marshals to exactly the bytes
// of the same index without them, and loads back with none. The lists
// stay findable, in either concept order and only under the
// fingerprint that built them, on the index that built them.
func TestPairsPersistRoundTrip(t *testing.T) {
	c, a, b, spec := pairTestIndex(t)
	if !bytes.Equal(c.Marshal(), framedTestIndex(t).Marshal()) {
		t.Fatal("registered pair lists changed the marshaled bytes")
	}
	loaded, err := LoadCompact(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.ConceptPairs(a, b, spec); ok {
		t.Fatal("a pair list loaded from a file")
	}
	want, _ := c.ConceptPairs(a, b, spec)
	for _, order := range [][2]Concept{{a, b}, {b, a}} {
		got, ok := c.ConceptPairs(order[0], order[1], spec)
		if !ok || got != want {
			t.Fatal("lookup depends on concept order")
		}
	}
	if _, ok := c.ConceptPairs(a, b, spec+1); ok {
		t.Fatal("pair served under a different kernel fingerprint")
	}
}

// TestPairsEmptySetRoundTrip pins that an index with no pairs
// marshals without a section 5 and loads cleanly — the "feature
// absent" shape every pre-pairs reader and writer produces.
func TestPairsEmptySetRoundTrip(t *testing.T) {
	c := framedTestIndex(t)
	if _, ok := c.ConceptPairs(Concept{"lenovo": 1}, Concept{"nba": 1}, 1); ok {
		t.Fatal("test premise broken: index has pairs")
	}
	loaded, err := LoadCompact(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.ConceptPairs(Concept{"lenovo": 1}, Concept{"nba": 1}, 1); ok {
		t.Fatal("ConceptPairs hit on an index with no pairs")
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

// TestPartitionPreservesPairScores pins how a shard gets its lists: a
// partition (n > 1) carries none, and the list each shard builds on its
// partition holds exactly the whole index's records for its documents,
// scores and witnesses bit for bit.
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
			if _, ok := p.ConceptPairs(a, b, spec); ok {
				t.Fatalf("n=%d: shard %d carries the pair list", n, s)
			}
			if _, ok := p.AddConceptPairs(a, b, spec, pairTestJoin); !ok {
				continue // shard holds none of the pair's docs
			}
			pt, _ := p.ConceptPairs(a, b, spec)
			assertSkipTable(t, pt)
			for _, ent := range decodeAll(t, pt) {
				if ShardOf(ent.Doc, n) != s {
					t.Fatalf("n=%d: doc %d landed in shard %d", n, ent.Doc, s)
				}
				merged = append(merged, ent)
			}
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].Doc < merged[j].Doc })
		if !entriesEqual(merged, all) {
			t.Fatalf("n=%d: shard-built pair entries differ from the whole", n)
		}
	}
}

// findBlock returns the index of the block whose document range
// contains doc, or -1 when no block covers it.
func findBlock(pt *PairTable, doc int) int {
	i := sort.Search(len(pt.Infos), func(i int) bool { return pt.Infos[i].LastDoc >= doc })
	if i == len(pt.Infos) || pt.Infos[i].FirstDoc > doc {
		return -1
	}
	return i
}

// assertSkipTable checks pt's skip entries against its records: each
// block's first and last document, its count, and payload ranges that
// tile the payload in order.
func assertSkipTable(t *testing.T, pt *PairTable) {
	t.Helper()
	off := 0
	for i, info := range pt.Infos {
		es, _ := pt.DecodeBlock(i)
		if len(es) != info.NDocs || es[0].Doc != info.FirstDoc || es[len(es)-1].Doc != info.LastDoc ||
			info.Off != off {
			t.Fatalf("block %d: skip entry %+v disagrees with its %d records", i, info, len(es))
		}
		off += info.Len
	}
	if off != len(pt.payload) {
		t.Fatalf("blocks cover %d of %d payload bytes", off, len(pt.payload))
	}
}
