package index

import (
	"slices"
	"testing"

	"bestjoin/internal/lexicon"
	"bestjoin/internal/text"
)

func build(t *testing.T) *Index {
	t.Helper()
	ix := New()
	ix.AddText(0, "lenovo partners with the nba in a new deal")
	ix.AddText(1, "dell announced a partnership with the olympics")
	ix.AddText(2, "no relevant words here at all")
	return ix
}

func TestPostingsSortedAndStemmed(t *testing.T) {
	ix := build(t)
	ps := ix.Postings("partner") // stems to "partner", matches "partners"
	if len(ps) != 1 || ps[0].Doc != 0 || ps[0].Pos != 1 {
		t.Fatalf("Postings(partner) = %v", ps)
	}
	// "partnership" stems differently and lives in doc 1.
	ps = ix.Postings("partnership")
	if len(ps) != 1 || ps[0].Doc != 1 {
		t.Fatalf("Postings(partnership) = %v", ps)
	}
	if got := ix.Docs(); got != 3 {
		t.Errorf("Docs = %d, want 3", got)
	}
}

func TestDocFreq(t *testing.T) {
	ix := New()
	ix.AddText(0, "alpha alpha beta")
	ix.AddText(1, "alpha gamma")
	ix.AddText(2, "beta")
	if got := ix.DocFreq("alpha"); got != 2 {
		t.Errorf("DocFreq(alpha) = %d, want 2", got)
	}
	if got := ix.DocFreq("beta"); got != 2 {
		t.Errorf("DocFreq(beta) = %d, want 2", got)
	}
	if got := ix.DocFreq("delta"); got != 0 {
		t.Errorf("DocFreq(delta) = %d, want 0", got)
	}
}

func TestConceptListMergesScoredPostings(t *testing.T) {
	ix := build(t)
	// The "PC maker" concept: specific companies with their scores.
	pcMaker := Concept{"lenovo": 0.9, "dell": 0.9, "ibm": 0.8}
	l0 := ix.ConceptList(0, pcMaker)
	if len(l0) != 1 || l0[0].Loc != 0 || l0[0].Score != 0.9 {
		t.Fatalf("doc0 concept list = %v", l0)
	}
	l1 := ix.ConceptList(1, pcMaker)
	if len(l1) != 1 || l1[0].Loc != 0 || l1[0].Score != 0.9 {
		t.Fatalf("doc1 concept list = %v", l1)
	}
	if l2 := ix.ConceptList(2, pcMaker); len(l2) != 0 {
		t.Fatalf("doc2 concept list = %v, want empty", l2)
	}
}

func TestConceptListBestScoreWinsOnSharedStem(t *testing.T) {
	ix := New()
	ix.AddText(0, "marry")
	// "marry" and "married" share a stem; the higher score must win.
	c := Concept{"marry": 0.6, "married": 0.9}
	l := ix.ConceptList(0, c)
	if len(l) != 1 || l[0].Score != 0.9 {
		t.Fatalf("shared-stem concept list = %v", l)
	}
}

func TestQueryListsFormJoinInstance(t *testing.T) {
	ix := build(t)
	lists := ix.QueryLists(0, []Concept{
		{"lenovo": 1, "dell": 1},
		{"nba": 1, "olympics": 1},
		{"deal": 0.7, "partnership": 1, "partners": 1},
	})
	if len(lists) != 3 {
		t.Fatalf("QueryLists returned %d lists", len(lists))
	}
	if err := lists.Validate(); err != nil {
		t.Fatal(err)
	}
	for j, l := range lists {
		if len(l) == 0 {
			t.Errorf("list %d empty", j)
		}
	}
}

func TestConceptFromGraph(t *testing.T) {
	g := lexicon.NewGraph()
	g.AddEdge("conference", "workshop")
	g.AddEdge("workshop", "seminar")
	c := ConceptFromGraph(g.Neighborhood("conference", 2), lexicon.ScorePerEdge)
	if c[text.Stem("conference")] != 1.0 {
		t.Errorf("conference score = %v", c[text.Stem("conference")])
	}
	if c[text.Stem("workshop")] != 0.7 {
		t.Errorf("workshop score = %v", c[text.Stem("workshop")])
	}
	if c[text.Stem("seminar")] != 0.4 {
		t.Errorf("seminar score = %v", c[text.Stem("seminar")])
	}
}

// TestAddStemsEveryOccurrence: Add stems a distinct token once and
// reuses the answer, so a repeated word form must land where stemming
// each occurrence would put it — same list, every position, in order —
// and forms sharing a stem must still share a list.
func TestAddStemsEveryOccurrence(t *testing.T) {
	ix := New()
	docs := []string{"partners partner partners running", "runs partners run", "running partnered"}
	want := map[string][]Posting{}
	for d, body := range docs {
		ix.AddText(d, body)
		for _, tok := range text.Tokenize(body) {
			want[text.Stem(tok.Word)] = append(want[text.Stem(tok.Word)], Posting{Doc: d, Pos: tok.Pos})
		}
	}
	if len(ix.postings) != len(want) {
		t.Fatalf("%d posting lists, want %d", len(ix.postings), len(want))
	}
	for stem, ps := range want {
		if got := ix.postings[stem]; !slices.Equal(got, ps) {
			t.Fatalf("postings[%q] = %v, want %v", stem, got, ps)
		}
	}
	if n := len(ix.Postings("partner")); n != 5 {
		t.Fatalf("Postings(partner) has %d entries, want 5", n)
	}
}
