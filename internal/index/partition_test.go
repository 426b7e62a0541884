package index

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bestjoin/internal/match"
)

// partitionCorpus builds a compacted index with registered concept
// metadata and block tables, exercising every section a Partition
// must split.
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
	for _, cc := range concepts {
		c.AddConceptBlocksSized(cc, 2) // tiny blocks → several per concept
	}
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

func TestPartitionSplitsConceptBlocks(t *testing.T) {
	c, concepts := partitionCorpus(t)
	const n = 2
	shards, err := c.Partition(n)
	if err != nil {
		t.Fatalf("Partition(%d): %v", n, err)
	}
	for _, cc := range concepts {
		wantDocs, wantLists := decodeAllBlocks(t, c, cc)
		gotLists := map[int]match.List{}
		for s, shard := range shards {
			docs, lists := decodeAllBlocks(t, shard, cc)
			for i, d := range docs {
				if ShardOf(d, n) != s {
					t.Fatalf("shard %d blocks own doc %d", s, d)
				}
				gotLists[d] = lists[i]
			}
		}
		if len(gotLists) != len(wantDocs) {
			t.Fatalf("concept %v: shard blocks cover %d docs, want %d", cc, len(gotLists), len(wantDocs))
		}
		for i, d := range wantDocs {
			if !reflect.DeepEqual(gotLists[d], wantLists[i]) {
				t.Fatalf("concept %v doc %d: shard list %v, want %v", cc, d, gotLists[d], wantLists[i])
			}
		}
	}
}

// TestPartitionSplitsBatchedBlocks is the batched-layout twin of
// TestPartitionSplitsConceptBlocks: a concept registered in the
// group-varint batch form must survive the split with its layout
// intact (each shard's buffer lands in the batch map, not the varint
// one — shard deltas are a subset of the original's, so they fit) and
// with exactly the original documents and match lists, shard-disjoint.
func TestPartitionSplitsBatchedBlocks(t *testing.T) {
	c, concepts := partitionCorpus(t)
	batched := Concept{"lenovo": 1.0, "ibm": 0.5}
	if !c.AddConceptBlocksBatchSized(batched, 2) {
		t.Fatal("batch layout not registered")
	}
	concepts = append(concepts, batched)
	const n = 3
	shards, err := c.Partition(n)
	if err != nil {
		t.Fatalf("Partition(%d): %v", n, err)
	}
	key := ConceptKey(batched)
	for s, shard := range shards {
		if _, leaked := shard.blocks[key]; leaked {
			t.Fatalf("shard %d: batched concept re-encoded as varint", s)
		}
	}
	for _, cc := range concepts {
		wantDocs, wantLists := decodeAllBlocks(t, c, cc)
		gotLists := map[int]match.List{}
		for s, shard := range shards {
			docs, lists := decodeAllBlocks(t, shard, cc)
			for i, d := range docs {
				if ShardOf(d, n) != s {
					t.Fatalf("shard %d blocks own doc %d", s, d)
				}
				gotLists[d] = lists[i]
			}
		}
		if len(gotLists) != len(wantDocs) {
			t.Fatalf("concept %v: shard blocks cover %d docs, want %d", cc, len(gotLists), len(wantDocs))
		}
		for i, d := range wantDocs {
			if !reflect.DeepEqual(gotLists[d], wantLists[i]) {
				t.Fatalf("concept %v doc %d: shard list %v, want %v", cc, d, gotLists[d], wantLists[i])
			}
		}
	}
}

// TestBuildConceptBlocksBatchMatchesVarint pins the two standalone
// builders against each other: both encode the same corpus-wide
// best-member-score merge, so decoding their outputs must agree
// document for document and match for match.
func TestBuildConceptBlocksBatchMatchesVarint(t *testing.T) {
	c, concepts := partitionCorpus(t)
	for _, cc := range concepts {
		vbuf := c.BuildConceptBlocks(cc)
		bbuf, ok := c.BuildConceptBlocksBatch(cc)
		if !ok {
			t.Fatalf("concept %v: batch builder fell back on an ordinary corpus", cc)
		}
		vt, err := DecodeBlocks(vbuf)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := DecodeBlocksBatch(bbuf)
		if err != nil {
			t.Fatal(err)
		}
		if len(vt.Infos) != len(bt.Infos) {
			t.Fatalf("concept %v: %d varint blocks vs %d batch blocks", cc, len(vt.Infos), len(bt.Infos))
		}
		for i := range vt.Infos {
			vd, vl, err := vt.DecodeBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			bd, bl, err := bt.DecodeBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(vd, bd) || !reflect.DeepEqual(vl, bl) {
				t.Fatalf("concept %v block %d: builders disagree", cc, i)
			}
		}
	}
	if buf, ok := c.BuildConceptBlocksBatch(Concept{"unseen-word": 1}); !ok || buf != nil {
		t.Fatalf("empty concept: got (%v, %v), want (nil, true)", buf, ok)
	}
}

func decodeAllBlocks(t *testing.T, c *Compact, cc Concept) ([]int, []match.List) {
	t.Helper()
	bt, ok := c.ConceptBlocks(cc)
	if !ok {
		return nil, nil
	}
	var docs []int
	var lists []match.List
	for i := range bt.Infos {
		d, l, err := bt.DecodeBlock(i)
		if err != nil {
			t.Fatalf("DecodeBlock(%d): %v", i, err)
		}
		docs = append(docs, d...)
		lists = append(lists, l...)
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
		for key, buf := range a[s].blocks {
			if !bytes.Equal(buf, b[s].blocks[key]) {
				t.Fatalf("shard %d blocks %x: buffers differ across runs", s, key)
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
