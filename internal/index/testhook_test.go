package index

import (
	"reflect"
	"testing"
)

// The corruption hooks exist so other packages can prove their
// containment of index-layer panics; these tests pin the hooks' own
// contract — each one really produces the failure mode it advertises,
// on unflagged and on flagged block tables — so a hook silently going
// stale can't turn the engine's robustness suite into a no-op.

// hookCorpus is twelve identical documents, with ids 2^32 apart when
// wide — which flags the concept's block table.
func hookCorpus(t *testing.T, wide bool) (*Compact, Concept) {
	t.Helper()
	ix := New()
	for d := 0; d < 12; d++ {
		id := d
		if wide {
			id <<= 32
		}
		ix.AddText(id, "amber basalt cedar amber basalt")
	}
	return ix.Compact(), Concept{"amber": 1, "basalt": 0.9}
}

// hookTables builds the hook corpus's concept table with small blocks
// for each table shape, handing each to f as a subtest: "batch" is an
// unflagged table, every value in a group-varint lane; "varint" is a
// flagged one, whose 2^32 gaps travel as uvarint escapes.
func hookTables(t *testing.T, f func(t *testing.T, c *Compact, concept Concept)) {
	for _, shape := range []string{"batch", "varint"} {
		t.Run(shape, func(t *testing.T) {
			c, concept := hookCorpus(t, shape == "varint")
			SetBlockSizeForTest(c, 4)
			if bt, _ := c.ConceptBlocks(concept); bt.wide != (shape == "varint") {
				t.Fatalf("table flagged %v", bt.wide)
			}
			f(t, c, concept)
		})
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", what)
		}
	}()
	f()
}

func TestCorruptPostingsHookPanics(t *testing.T) {
	c, _ := hookCorpus(t, false)
	CorruptPostingsForTest(c, "amber")
	mustPanic(t, "Postings on corrupt bytes", func() { c.Postings("amber") })
}

func TestCorruptConceptBlocksHookPanics(t *testing.T) {
	hookTables(t, func(t *testing.T, c *Compact, concept Concept) {
		CorruptPostingsForTest(c, "amber")
		mustPanic(t, "ConceptBlocks on corrupt postings", func() { c.ConceptBlocks(concept) })
	})
}

func TestCorruptConceptBlockPayloadHook(t *testing.T) {
	hookTables(t, func(t *testing.T, c *Compact, concept Concept) {
		bt, _ := c.ConceptBlocks(concept)
		CorruptConceptBlockPayloadForTest(bt)
		// The skip table must still find blocks — the hook's point is
		// that the failure is deferred to the lazy per-block path.
		if bt.FindBlock(0) != 0 {
			t.Fatal("payload hook broke the skip table too")
		}
		for i := range bt.Infos {
			if _, err := bt.DecodeDocs(i); err == nil {
				t.Fatalf("block %d directory decoded despite corrupted payload", i)
			}
		}
	})
}

func TestQueryLists(t *testing.T) {
	c, concept := hookCorpus(t, false)
	other := Concept{"cedar": 0.5}
	lists := c.QueryLists(3, []Concept{concept, other})
	if len(lists) != 2 {
		t.Fatalf("got %d lists, want 2", len(lists))
	}
	for i, cc := range []Concept{concept, other} {
		if want := c.ConceptList(3, cc); !reflect.DeepEqual(lists[i], want) {
			t.Fatalf("concept %d: QueryLists %v, ConceptList %v", i, lists[i], want)
		}
	}
}
