package index

import (
	"reflect"
	"testing"
)

// The corruption hooks exist so other packages can prove their
// containment of index-layer panics; these tests pin the hooks' own
// contract — each one really produces the failure mode it advertises,
// with document ids below 2^32 and past it — so a hook silently going
// stale can't turn the engine's robustness suite into a no-op.

// hookCorpus is twelve identical documents, with ids 2^32 apart when
// wide.
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

// hookTables hands the hook corpus to f as a subtest for each id
// range: "batch" keeps ids below 2^32, "varint" spaces them 2^32 apart
// (the names are those of the two block-table shapes the corpora once
// exercised).
func hookTables(t *testing.T, f func(t *testing.T, c *Compact, concept Concept)) {
	for _, shape := range []string{"batch", "varint"} {
		t.Run(shape, func(t *testing.T) {
			c, concept := hookCorpus(t, shape == "varint")
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
		if bt, _ := c.ConceptBlocks(concept); bt.NumBlocks() != 1 {
			t.Fatalf("healthy view has %d blocks, want 1", bt.NumBlocks())
		}
		CorruptPostingsForTest(c, "amber")
		mustPanic(t, "ConceptBlocks on corrupt postings", func() { c.ConceptBlocks(concept) })
		if _, err := c.ConceptStems(concept); err == nil {
			t.Fatal("ConceptStems decoded corrupt postings")
		}
	})
}

// TestCorruptConceptBlockPayloadHook pins that CorruptPostingsForTest
// reaches the lazy per-stem decode even on a warm index: with every
// stem of the concept decoded already, the hook still makes the next
// use of the corrupted stem fail — every use, nothing kept — while the
// concept's other stem keeps its decoded arrays. (The name is that of
// the former block-payload hook, whose deferred per-block failure the
// per-stem decode now carries.)
func TestCorruptConceptBlockPayloadHook(t *testing.T) {
	hookTables(t, func(t *testing.T, c *Compact, concept Concept) {
		stems, err := c.ConceptStems(concept)
		if err != nil || len(stems) != 2 {
			t.Fatalf("healthy concept: %d stems, %v", len(stems), err)
		}
		basalt, _ := c.Stem("basalt")
		CorruptPostingsForTest(c, "amber")
		for range 2 {
			if s, err := c.Stem("amber"); err == nil || s != nil {
				t.Fatalf("warm stem decoded past the hook: %v, %v", s, err)
			}
		}
		if s, err := c.Stem("basalt"); err != nil || s != basalt {
			t.Fatalf("untouched stem: %p, %v; want its decoded arrays %p", s, err, basalt)
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
