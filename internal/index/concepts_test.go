package index

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"bestjoin/internal/match"
	"bestjoin/internal/text"
)

// maxTableStems is engine.MaxConceptStems, the widest concept a query
// may hold.
const maxTableStems = 1 << 12

// tableWord is the k-th word of a fuzzed concept: consonants only, so
// the stemmer leaves each its own stem.
func tableWord(k int) string {
	const letters = "bcdfghjklmnprtvwxz"
	b := []byte{'q', letters[k%18], letters[k/18%18], letters[k/324%18]}
	return string(b)
}

// tableWeight is the weight of a fuzzed concept's k-th word: stems 0
// and 1 weigh −1 and 0, stems 2 and 3 weigh 1 and −0.75, so a document
// both of a pair hold has its largest weight on either the first stem
// present or a later one.
func tableWeight(k int) float64 { return float64(k*37%11)/4 - 1 }

// tableRef is what a concept table must hold on one document, computed
// from the stems' postings alone.
type tableRef struct {
	mask uint64
	max  float64
	best map[int]float64 // position → the highest weight holding it
}

// fuzzedConcept builds an index of n stems from data read as
// (stem, document step, position) byte triples, and the concept of
// their n words, with the reference union of its stems by document.
func fuzzedConcept(t *testing.T, data []byte, n int) (*Compact, Concept, map[int]*tableRef) {
	t.Helper()
	postings := make([][]Posting, n)
	doc := 0
	for ; len(data) >= 3; data = data[3:] {
		k := int(data[0]) % n
		doc += int(data[1]) % 4
		postings[k] = append(postings[k], Posting{Doc: doc, Pos: 3 * int(data[2])})
	}
	c := New().Compact()
	concept := Concept{}
	ref := map[int]*tableRef{}
	for k, ps := range postings {
		w := tableWord(k)
		if text.Stem(w) != w {
			t.Fatalf("word %q stems to %q", w, text.Stem(w))
		}
		concept[w] = tableWeight(k)
		if len(ps) == 0 {
			continue
		}
		slices.SortFunc(ps, func(a, b Posting) int {
			if a.Doc != b.Doc {
				return a.Doc - b.Doc
			}
			return a.Pos - b.Pos
		})
		c.setPostings(w, EncodePostings(ps))
		for i, p := range ps {
			r := ref[p.Doc]
			if r == nil {
				r = &tableRef{max: math.Inf(-1), best: map[int]float64{}}
				ref[p.Doc] = r
			}
			r.mask |= locBit(p.Pos)
			if i == 0 || ps[i-1].Doc != p.Doc {
				r.max = max(r.max, concept[w])
			}
			if s, ok := r.best[p.Pos]; !ok || concept[w] > s {
				r.best[p.Pos] = concept[w]
			}
		}
	}
	return c, concept, ref
}

// FuzzConceptTable builds a concept of up to maxTableStems stems from
// the input and holds its table to the stems' union, bit for bit:
// every document any stem holds, ascending, each with the OR of the
// stems' location masks, the largest weight present, and the list the
// stems' positions merge to — Compact.ConceptList's — as a
// capacity-capped slice. The widest concept's build stays under a
// second: it costs the stems present on a document, not every stem.
func FuzzConceptTable(f *testing.F) {
	triples := func(ts ...int) []byte {
		b := make([]byte, len(ts))
		for i, v := range ts {
			b[i] = byte(v)
		}
		return b
	}
	// Two stems on one location at different weights, the lighter one
	// first, and then the heavier first.
	f.Add(triples(0, 0, 5, 1, 0, 5, 1, 1, 9, 0, 0, 2), uint16(0))
	f.Add(triples(2, 0, 5, 3, 0, 5, 3, 1, 4, 2, 0, 200), uint16(2))
	// Repeated positions, within a stem and across two.
	f.Add(triples(0, 0, 7, 0, 0, 7, 1, 0, 7, 1, 1, 8, 1, 0, 8), uint16(0))
	// Stems with disjoint documents.
	f.Add(triples(0, 0, 1, 0, 1, 2, 0, 1, 3, 1, 1, 4, 1, 1, 5, 1, 2, 6), uint16(0))
	// One stem holds documents, a position twice: no table, the
	// stem's arrays read at its weight.
	f.Add(triples(0, 0, 7, 0, 0, 7, 0, 1, 9), uint16(0))
	// The widest concept: every stem holds documents, and most
	// documents one stem, so a build that scanned every stem per
	// document would take seconds.
	wide := make([]byte, 0, 3*120000)
	for i := 0; i < 120000; i++ {
		wide = append(wide, byte(i*7), byte(1+i%3), byte(i*13))
	}
	f.Add(wide, uint16(maxTableStems-2))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		stems := 2 + int(n)%(maxTableStems-1)
		c, concept, ref := fuzzedConcept(t, data, stems)
		start := time.Now()
		tab := c.fullTable(concept)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("a concept of %d stems took %v to build", stems, took)
		}
		want := slices.Sorted(func(yield func(int) bool) {
			for d := range ref {
				if !yield(d) {
					return
				}
			}
		})
		// What a query reads: the kept table, or the one stem's arrays.
		arrays, err := c.ConceptArrays(concept)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != len(want) || arrays.Len() != len(want) {
			t.Fatalf("table of %d documents, arrays of %d, the stems hold %d", tab.Len(), arrays.Len(), len(want))
		}
		var scratch match.List
		for i, d := range want {
			doc, mask, mx := tab.At(i)
			r := ref[d]
			if doc != d || mask != r.mask || math.Float64bits(mx) != math.Float64bits(r.max) {
				t.Fatalf("entry %d: doc %d mask %x max %v, want doc %d mask %x max %v", i, doc, mask, mx, d, r.mask, r.max)
			}
			if ad, am, ax := arrays.At(i); ad != doc || am != mask || math.Float64bits(ax) != math.Float64bits(mx) {
				t.Fatalf("entry %d: arrays read doc %d mask %x max %v, the table %d %x %v", i, ad, am, ax, doc, mask, mx)
			}
			for _, seek := range []func(lo, doc int) int{tab.Seek, arrays.Seek} {
				if seek(0, d) != i || seek(i, d) != i || seek(0, d+1) != i+1 {
					t.Fatalf("Seek disagrees with document %d at %d", d, i)
				}
			}
			l := tab.List(i)
			if cap(l) != len(l) {
				t.Fatalf("doc %d: list of %d matches has capacity %d", d, len(l), cap(l))
			}
			if al := arrays.List(i, &scratch); !slices.Equal(al, l) {
				t.Fatalf("doc %d: arrays list %v, table list %v", d, al, l)
			}
			wl := make(match.List, 0, len(r.best))
			for _, p := range slices.Sorted(func(yield func(int) bool) {
				for p := range r.best {
					if !yield(p) {
						return
					}
				}
			}) {
				wl = append(wl, match.Match{Loc: p, Score: r.best[p]})
			}
			if !slices.Equal(l, wl) {
				t.Fatalf("doc %d: list %v, stems' union %v", d, l, wl)
			}
		}
		if stems <= 64 {
			docs, lists := tableLists(c, concept)
			fuzzConceptLists(t, c, concept, docs, lists)
		}
	})
}

// TestConceptTableKeptOncePerConcept: a concept of two or more stems
// is merged once and kept, and a repeated lookup — the same words and
// weights, whichever map holds them — returns that table; a concept of
// one stem reads the stem's arrays; a different weight is a different
// concept.
func TestConceptTableKeptOncePerConcept(t *testing.T) {
	ix := New()
	ix.AddText(0, "river bank flood")
	ix.AddText(2, "flood water river river")
	c := ix.Compact()
	a, err := c.ConceptArrays(Concept{"river": 1, "flood": 0.5})
	if err != nil || a.Table() == nil || a.Len() != 2 || a.Top() != 1 {
		t.Fatalf("two stems: %+v, %v", a, err)
	}
	again, _ := c.ConceptArrays(Concept{"flood": 0.5, "river": 1})
	if again != a {
		t.Fatal("a repeated concept was merged again")
	}
	if other, _ := c.ConceptArrays(Concept{"river": 1, "flood": 0.25}); other == a {
		t.Fatal("a concept at another weight shares the table")
	}
	one, _ := c.ConceptArrays(Concept{"rivers": 0.5, "river": 0.75})
	if one.Table() != nil || one.Len() != 2 || one.Top() != 0.75 {
		t.Fatalf("one stem: table %v, %d documents, top %v", one.Table(), one.Len(), one.Top())
	}
	var scratch match.List
	if l := one.List(1, &scratch); !slices.Equal(l, match.List{{Loc: 2, Score: 0.75}, {Loc: 3, Score: 0.75}}) || &l[0] != &scratch[0] {
		t.Fatalf("one stem's list %v, converted into scratch %v", l, scratch)
	}
	none, _ := c.ConceptArrays(Concept{"zebra": 1})
	if none.Len() != 0 || !math.IsInf(none.Top(), -1) {
		t.Fatalf("no stem: %d documents, top %v", none.Len(), none.Top())
	}
	kept := Concept{"flood": 0.5, "river": 1}
	if allocs := testing.AllocsPerRun(100, func() { c.ConceptArrays(kept) }); allocs != 0 {
		t.Errorf("a kept concept's lookup costs %.0f allocations", allocs)
	}
}

// TestConceptTableRacingFirstUses: goroutines racing the first use of
// the same concepts all read equal tables, one of them kept and
// charged once. Run under -race (scripts/check.sh, twenty times).
func TestConceptTableRacingFirstUses(t *testing.T) {
	c := blocksTestCompact(t, 300, 7)
	concepts := []Concept{{"river": 1, "bank": 0.5}, {"flood": 1, "water": 0.75, "delta": 0.5}, {"stone": 1}}
	const racers = 8
	got := make([][]*ConceptArrays, racers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, cc := range concepts {
				a, err := c.ConceptArrays(cc)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], a)
			}
		}()
	}
	wg.Wait()
	var kept int64
	for j, cc := range concepts {
		a, _ := c.ConceptArrays(cc)
		kept += entryBytes(cc, a)
		docs, lists := flatConceptMatches(c, cc)
		for g := range got {
			b := got[g][j]
			if b.Len() != len(docs) {
				t.Fatalf("racer %d concept %d: %d documents, want %d", g, j, b.Len(), len(docs))
			}
			var scratch match.List
			for i, d := range docs {
				if doc, _, _ := b.At(i); doc != d || !slices.Equal(b.List(i, &scratch), lists[i]) {
					t.Fatalf("racer %d concept %d doc %d: list %v, want %v", g, j, d, b.List(i, &scratch), lists[i])
				}
			}
		}
	}
	if size := c.concepts.size.Load(); size != kept {
		t.Fatalf("kept concepts charged %d bytes, want %d", size, kept)
	}
}

// TestConceptTableBudgetEvicts: past the budget, an insert evicts
// unmarked concepts by CLOCK and the charged bytes stay within it; a
// concept used since the last sweep survives one; a table larger than
// the whole budget is built for its use and not kept. Answers never
// change.
func TestConceptTableBudgetEvicts(t *testing.T) {
	c := blocksTestCompact(t, 400, 11)
	vocab := []string{"river", "bank", "flood", "water", "delta", "stone", "bridge", "valley"}
	var concepts []Concept
	for i := range vocab {
		for j := i + 1; j < len(vocab); j++ {
			concepts = append(concepts, Concept{vocab[i]: 1, vocab[j]: 0.5})
		}
	}
	first, _ := c.ConceptArrays(concepts[0])
	one := entryBytes(concepts[0], first)
	c.concepts = newConceptCache()
	SetConceptBudgetForTest(c, 3*one)
	hot := concepts[0]
	for i, cc := range concepts {
		c.ConceptArrays(hot) // marked between every insert
		a, err := c.ConceptArrays(cc)
		if err != nil {
			t.Fatal(err)
		}
		docs, lists := flatConceptMatches(c, cc)
		for k, d := range docs {
			if doc, _, _ := a.At(k); doc != d || !slices.Equal(a.Table().List(k), lists[k]) {
				t.Fatalf("concept %d doc %d differs from the reference", i, d)
			}
		}
		if size := c.concepts.size.Load(); size > c.concepts.budget {
			t.Fatalf("after concept %d: %d bytes kept, budget %d", i, size, c.concepts.budget)
		}
	}
	if len(c.concepts.m) == len(concepts) {
		t.Fatal("nothing was evicted")
	}
	if c.concepts.lookup(conceptHash(hot), hot) == nil {
		t.Fatal("the concept used between every insert was evicted")
	}
	SetConceptBudgetForTest(c, one/2)
	before := len(c.concepts.m)
	huge := Concept{"river": 0.25, "valley": 0.25}
	if a, _ := c.ConceptArrays(huge); a.Table() == nil || len(c.concepts.m) != before {
		t.Fatalf("a table past the whole budget: table %v, %d kept concepts, want %d", a.Table(), len(c.concepts.m), before)
	}
}

// TestConceptTableKeyCollision: a lookup confirms the words and
// weights behind a hash, so a concept whose hash an unlike concept
// already holds is a miss, is not kept over it, and reads its own
// arrays.
func TestConceptTableKeyCollision(t *testing.T) {
	cc := newConceptCache()
	first, second := &ConceptArrays{}, &ConceptArrays{}
	a, b := Concept{"river": 1, "bank": 0.5}, Concept{"river": 1, "bank": 0.25}
	if got := cc.keep(7, a, first); got != first {
		t.Fatal("a first concept is not kept")
	}
	if got := cc.keep(7, b, second); got != second || cc.lookup(7, b) != nil || cc.lookup(7, a) != first {
		t.Fatal("a colliding concept replaced the kept one or read its arrays")
	}
	for _, other := range []Concept{{"river": 1}, {"river": 1, "flood": 0.5}, b} {
		if sameConcept(a, other) {
			t.Fatalf("%v taken for %v", other, a)
		}
	}
}

// TestConceptTableResidentBytes: the index reports its decoded stems'
// and kept tables' bytes, from their capacities.
func TestConceptTableResidentBytes(t *testing.T) {
	c := blocksTestCompact(t, 200, 3)
	if c.ResidentBytes() != 0 {
		t.Fatalf("a fresh index holds %d decoded bytes", c.ResidentBytes())
	}
	cc := Concept{"river": 1, "bank": 0.5}
	a, err := c.ConceptArrays(cc)
	if err != nil {
		t.Fatal(err)
	}
	river, _ := c.Stem("river")
	bank, _ := c.Stem("bank")
	want := int64(river.Bytes()+bank.Bytes()) + entryBytes(cc, a)
	if got := c.ResidentBytes(); got != want {
		t.Fatalf("resident %d bytes, want %d", got, want)
	}
	if a.Table().Bytes() < 32*a.Len() {
		t.Fatalf("a table of %d documents reports %d bytes", a.Len(), a.Table().Bytes())
	}
}

// ExampleCompact_ConceptArrays walks a concept of two stems.
func ExampleCompact_ConceptArrays() {
	ix := New()
	ix.AddText(0, "river bank")
	ix.AddText(1, "flood")
	ix.AddText(2, "bank flood river")
	a, _ := ix.Compact().ConceptArrays(Concept{"river": 1, "bank": 0.5})
	var scratch match.List
	for i := 0; i < a.Len(); i++ {
		doc, _, top := a.At(i)
		fmt.Println(doc, top, a.List(i, &scratch))
	}
	// Output:
	// 0 1 [{0 1} {1 0.5}]
	// 2 1 [{0 0.5} {2 1}]
}
