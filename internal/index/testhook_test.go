package index

import (
	"reflect"
	"testing"
)

// The corruption hooks exist so other packages can prove their
// containment of index-layer panics; these tests pin the hooks' own
// contract — each one really produces the failure mode it advertises,
// for both block layouts — so a hook silently going stale can't turn
// the engine's robustness suite into a no-op.

func hookCorpus(t *testing.T) (*Compact, Concept) {
	t.Helper()
	ix := New()
	for d := 0; d < 12; d++ {
		ix.AddText(d, "amber basalt cedar amber basalt")
	}
	return ix.Compact(), Concept{"amber": 1, "basalt": 0.9}
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
	c, _ := hookCorpus(t)
	CorruptPostingsForTest(c, "amber")
	mustPanic(t, "Postings on corrupt bytes", func() { c.Postings("amber") })
}

func TestCorruptConceptBlocksHookPanics(t *testing.T) {
	for _, layout := range []string{"varint", "batch"} {
		t.Run(layout, func(t *testing.T) {
			c, concept := hookCorpus(t)
			if layout == "batch" {
				if !c.AddConceptBlocksBatchSized(concept, 4) {
					t.Fatal("batch layout not registered")
				}
			} else {
				c.AddConceptBlocksSized(concept, 4)
			}
			CorruptConceptBlocksForTest(c, concept)
			mustPanic(t, "ConceptBlocks on corrupt table", func() { c.ConceptBlocks(concept) })
		})
	}
}

func TestCorruptConceptBlockPayloadHook(t *testing.T) {
	for _, layout := range []string{"varint", "batch"} {
		t.Run(layout, func(t *testing.T) {
			c, concept := hookCorpus(t)
			if layout == "batch" {
				if !c.AddConceptBlocksBatchSized(concept, 4) {
					t.Fatal("batch layout not registered")
				}
			} else {
				c.AddConceptBlocksSized(concept, 4)
			}
			CorruptConceptBlockPayloadForTest(c, concept)
			// The skip table must still decode — the hook's point is that
			// the failure is deferred to the lazy per-block path.
			bt, ok := c.ConceptBlocks(concept)
			if !ok || bt == nil {
				t.Fatal("payload hook broke the skip table too")
			}
			if _, _, err := bt.DecodeBlock(len(bt.Infos) - 1); err == nil {
				t.Fatal("last block decoded despite corrupted payload")
			}
		})
	}
}

func TestQueryLists(t *testing.T) {
	c, concept := hookCorpus(t)
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
