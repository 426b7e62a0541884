package index

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// partitionCorpus builds a compacted index whose concept tables are cut
// into tiny blocks, several per concept.
func partitionCorpus(t *testing.T) (*Compact, []Concept) {
	t.Helper()
	ix := New()
	bodies := []string{
		"lenovo makes laptops and ships laptops worldwide",
		"dell and lenovo both make laptops",
		"nothing relevant here at all whatsoever",
		"dell only dell again dell",
		"ibm sells lenovo its pc business",
		"laptops laptops laptops everywhere",
		"the pc business consolidated around dell and ibm",
		"quiet document about gardening",
		"lenovo dell ibm all in one line",
	}
	for d, b := range bodies {
		ix.AddText(d, b)
	}
	c := ix.Compact()
	concepts := []Concept{
		{"lenovo": 1.0, "dell": 0.8, "ibm": 0.6},
		{"laptops": 0.9, "pc": 0.7},
	}
	SetBlockSizeForTest(c, 2)
	return c, concepts
}

func TestPartitionInvalid(t *testing.T) {
	c, _ := partitionCorpus(t)
	for _, n := range []int{0, -3} {
		if _, err := c.Partition(n); err == nil {
			t.Errorf("Partition(%d): want error, got nil", n)
		}
	}
}

func TestPartitionSingleIsIdentity(t *testing.T) {
	c, _ := partitionCorpus(t)
	shards, err := c.Partition(1)
	if err != nil {
		t.Fatalf("Partition(1): %v", err)
	}
	if len(shards) != 1 || shards[0] != c {
		t.Fatalf("Partition(1) = %v, want the receiver itself", shards)
	}
}

func TestPartitionReconstructsPostings(t *testing.T) {
	c, _ := partitionCorpus(t)
	for _, n := range []int{2, 3, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			shards, err := c.Partition(n)
			if err != nil {
				t.Fatalf("Partition(%d): %v", n, err)
			}
			if len(shards) != n {
				t.Fatalf("got %d shards, want %d", len(shards), n)
			}
			for stem, buf := range c.postings {
				want, err := DecodePostings(buf)
				if err != nil {
					t.Fatalf("original postings %q: %v", stem, err)
				}
				var got []Posting
				for s, shard := range shards {
					if shard.docs != c.docs {
						t.Fatalf("shard %d Docs() = %d, want global %d", s, shard.docs, c.docs)
					}
					ps, err := DecodePostings(shard.postings[stem])
					if err != nil {
						t.Fatalf("shard %d postings %q: %v", s, stem, err)
					}
					for _, p := range ps {
						if ShardOf(p.Doc, n) != s {
							t.Fatalf("shard %d owns doc %d (want shard %d)", s, p.Doc, ShardOf(p.Doc, n))
						}
					}
					got = append(got, ps...)
				}
				sortPostings(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("stem %q: shard union %v != original %v", stem, got, want)
				}
			}
		})
	}
}

func sortPostings(ps []Posting) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && (ps[j].Doc < ps[j-1].Doc || (ps[j].Doc == ps[j-1].Doc && ps[j].Pos < ps[j-1].Pos)); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// TestPartitionSplitsBatchedBlocks holds every unflagged table — the
// batched group-varint form — a shard builds to a shard-disjoint split
// with exactly the whole index's documents and match lists, and to that
// form too: a shard's values are bounded by the original's ids and
// positions, so no split may need the wide flag.
func TestPartitionSplitsBatchedBlocks(t *testing.T) {
	c, concepts := partitionCorpus(t)
	for _, shards := range assertPartitionSplits(t, c, concepts) {
		for s, shard := range shards {
			for _, cc := range concepts {
				if bt, _ := shard.ConceptBlocks(cc); bt.wide {
					t.Fatalf("%d shards: shard %d table of %v is flagged", len(shards), s, cc)
				}
			}
		}
	}
}

// TestPartitionSplitsConceptBlocks holds a flagged table, whose ids and
// positions straddle 2^32, to the same split.
func TestPartitionSplitsConceptBlocks(t *testing.T) {
	docs, lists := wideInput()
	word := map[float64]string{0.25: "wquarter", 0.5: "whalf", 1: "wone"}
	ix := New()
	for i, d := range docs {
		var toks []text.Token
		for _, m := range lists[i] {
			toks = append(toks, text.Token{Word: word[m.Score], Pos: m.Loc})
		}
		ix.Add(d, toks)
	}
	c := ix.Compact()
	SetBlockSizeForTest(c, 2)
	wide := Concept{}
	for score, w := range word {
		wide[w] = score
	}
	if bt, _ := c.ConceptBlocks(wide); !bt.wide {
		t.Fatal("table over ids past 2^32 is not flagged")
	}
	assertPartitionSplits(t, c, []Concept{wide})
}

// assertPartitionSplits splits c 2 and 3 ways and checks that the
// tables the shards build for concepts own disjoint documents by
// ShardOf and together hold exactly the documents and match lists of
// c's own tables. It returns the splits.
func assertPartitionSplits(t *testing.T, c *Compact, concepts []Concept) [][]*Compact {
	t.Helper()
	var splits [][]*Compact
	for _, n := range []int{2, 3} {
		shards, err := c.Partition(n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		splits = append(splits, shards)
		for _, cc := range concepts {
			wantDocs, wantLists := decodeAllBlocks(t, c, cc)
			gotLists := map[int]match.List{}
			for s, shard := range shards {
				docs, lists := decodeAllBlocks(t, shard, cc)
				for i, d := range docs {
					if ShardOf(d, n) != s {
						t.Fatalf("n=%d: shard %d blocks own doc %d", n, s, d)
					}
					gotLists[d] = lists[i]
				}
			}
			if len(gotLists) != len(wantDocs) {
				t.Fatalf("n=%d concept %v: shard blocks cover %d docs, want %d", n, cc, len(gotLists), len(wantDocs))
			}
			for i, d := range wantDocs {
				if !reflect.DeepEqual(gotLists[d], wantLists[i]) {
					t.Fatalf("n=%d concept %v doc %d: shard list %v, want %v", n, cc, d, gotLists[d], wantLists[i])
				}
			}
		}
	}
	return splits
}

func decodeAllBlocks(t *testing.T, c *Compact, cc Concept) ([]int, []match.List) {
	t.Helper()
	bt, _ := c.ConceptBlocks(cc)
	docs, lists, err := bt.decodeAll()
	if err != nil {
		t.Fatal(err)
	}
	return docs, lists
}

// Partition must be deterministic: the same input always yields
// byte-identical shard buffers (the property that lets a coordinator
// and its future multi-process replicas agree on ownership).
func TestPartitionDeterministic(t *testing.T) {
	c, _ := partitionCorpus(t)
	a, err := c.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a {
		if len(a[s].postings) != len(b[s].postings) {
			t.Fatalf("shard %d: posting maps differ in size", s)
		}
		for stem, buf := range a[s].postings {
			if !bytes.Equal(buf, b[s].postings[stem]) {
				t.Fatalf("shard %d stem %q: buffers differ across runs", s, stem)
			}
		}
	}
}

// More shards than documents must still work: surplus shards simply
// hold no postings while retaining the global doc count.
func TestPartitionMoreShardsThanDocs(t *testing.T) {
	ix := New()
	ix.AddText(0, "alpha beta")
	ix.AddText(1, "beta gamma")
	c := ix.Compact()
	shards, err := c.Partition(5)
	if err != nil {
		t.Fatal(err)
	}
	for s := 2; s < 5; s++ {
		if got := len(shards[s].postings); got != 0 {
			t.Fatalf("surplus shard %d has %d posting lists, want 0", s, got)
		}
		if shards[s].docs != c.docs {
			t.Fatalf("surplus shard %d Docs() = %d, want %d", s, shards[s].docs, c.docs)
		}
	}
}
