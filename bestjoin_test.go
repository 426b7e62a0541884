package bestjoin_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"bestjoin"
)

func figure1Lists() bestjoin.MatchLists {
	// The paper's Figure 1 document, hand-annotated: matches for
	// {"PC maker", "sports", "partnership"}.
	return bestjoin.MatchLists{
		{ // PC maker: Lenovo, laptop maker, Lenovo, Dell, Hewlett-Packard
			{Loc: 8, Score: 0.9}, {Loc: 33, Score: 0.8}, {Loc: 70, Score: 0.9},
			{Loc: 80, Score: 0.9}, {Loc: 83, Score: 0.9},
		},
		{ // sports: NBA, NBA, Olympic Games, Winter Olympics, Summer Olympics
			{Loc: 16, Score: 0.8}, {Loc: 24, Score: 0.8}, {Loc: 44, Score: 0.8},
			{Loc: 55, Score: 0.7}, {Loc: 64, Score: 0.7},
		},
		{ // partnership: deal, partner, partnership
			{Loc: 5, Score: 0.7}, {Loc: 14, Score: 1.0}, {Loc: 42, Score: 1.0},
		},
	}
}

func TestFigure1BestJoinFindsLenovoNBAPartner(t *testing.T) {
	lists := figure1Lists()
	// The {Lenovo(8), NBA(16), partner(14)} cluster is the intuitive
	// winner under all three families at moderate decay.
	win := bestjoin.BestWIN(bestjoin.ExpWIN{Alpha: 0.1}, lists)
	if !win.OK || win.Set[0].Loc != 8 || win.Set[1].Loc != 16 || win.Set[2].Loc != 14 {
		t.Errorf("WIN picked %v", win.Set)
	}
	med := bestjoin.BestMED(bestjoin.ExpMED{Alpha: 0.1}, lists)
	if !med.OK || med.Set[0].Loc != 8 || med.Set[1].Loc != 16 || med.Set[2].Loc != 14 {
		t.Errorf("MED picked %v", med.Set)
	}
	max := bestjoin.BestMAX(bestjoin.SumMAX{Alpha: 0.1}, lists)
	if !max.OK || max.Set[0].Loc != 8 || max.Set[1].Loc != 16 || max.Set[2].Loc != 14 {
		t.Errorf("MAX picked %v", max.Set)
	}
}

func TestFacadeAgreesWithNaive(t *testing.T) {
	lists := figure1Lists()
	fw := bestjoin.BestWIN(bestjoin.ExpWIN{Alpha: 0.1}, lists)
	nw := bestjoin.NaiveWIN(bestjoin.ExpWIN{Alpha: 0.1}, lists)
	if math.Abs(fw.Score-nw.Score) > 1e-9 {
		t.Errorf("WIN %v != naive %v", fw.Score, nw.Score)
	}
	fm := bestjoin.BestMED(bestjoin.ExpMED{Alpha: 0.1}, lists)
	nm := bestjoin.NaiveMED(bestjoin.ExpMED{Alpha: 0.1}, lists)
	if math.Abs(fm.Score-nm.Score) > 1e-9 {
		t.Errorf("MED %v != naive %v", fm.Score, nm.Score)
	}
	fx := bestjoin.BestMAX(bestjoin.SumMAX{Alpha: 0.1}, lists)
	nx := bestjoin.NaiveMAX(bestjoin.SumMAX{Alpha: 0.1}, lists)
	if math.Abs(fx.Score-nx.Score) > 1e-9 {
		t.Errorf("MAX %v != naive %v", fx.Score, nx.Score)
	}
	gx := bestjoin.BestMAXGeneral(bestjoin.SumMAX{Alpha: 0.1}, lists)
	if math.Abs(gx.Score-nx.Score) > 1e-9 {
		t.Errorf("MAXGeneral %v != naive %v", gx.Score, nx.Score)
	}
}

func TestBestValidAvoidsDuplicates(t *testing.T) {
	lists := bestjoin.MatchLists{
		{{Loc: 10, Score: 0.9}, {Loc: 22, Score: 0.6}},
		{{Loc: 10, Score: 0.9}, {Loc: 20, Score: 0.8}},
	}
	res, inv := bestjoin.BestValidWIN(bestjoin.ExpWIN{Alpha: 0.2}, lists)
	if !res.OK || !res.Set.Valid() {
		t.Fatalf("BestValidWIN = %+v", res)
	}
	if inv < 2 {
		t.Errorf("invocations = %d, want reruns for the duplicated token", inv)
	}
	resMED, _ := bestjoin.BestValidMED(bestjoin.ExpMED{Alpha: 0.2}, lists)
	if !resMED.OK || !resMED.Set.Valid() {
		t.Fatalf("BestValidMED = %+v", resMED)
	}
	resMAX, _ := bestjoin.BestValidMAX(bestjoin.SumMAX{Alpha: 0.2}, lists)
	if !resMAX.OK || !resMAX.Set.Valid() {
		t.Fatalf("BestValidMAX = %+v", resMAX)
	}
}

func TestByLocationFacade(t *testing.T) {
	lists := figure1Lists()
	for name, got := range map[string][]bestjoin.Anchored{
		"WIN": bestjoin.ByLocationWIN(bestjoin.ExpWIN{Alpha: 0.1}, lists),
		"MED": bestjoin.ByLocationMED(bestjoin.ExpMED{Alpha: 0.1}, lists),
		"MAX": bestjoin.ByLocationMAX(bestjoin.SumMAX{Alpha: 0.1}, lists),
	} {
		if len(got) == 0 {
			t.Errorf("%s: no anchored results", name)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Anchor <= got[i-1].Anchor {
				t.Errorf("%s: anchors not increasing", name)
			}
		}
	}
	var streamed int
	bestjoin.StreamWIN(bestjoin.ExpWIN{Alpha: 0.1}, lists, func(bestjoin.Anchored) { streamed++ })
	if streamed != len(bestjoin.ByLocationWIN(bestjoin.ExpWIN{Alpha: 0.1}, lists)) {
		t.Error("StreamWIN emitted a different number of anchors")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	// The paper's Figure 1 text through the full pipeline: tokenize,
	// match with the lexicon, best-join, and recover the
	// Lenovo/NBA/partner answer.
	body := "As part of the new deal, Lenovo will become the official PC partner " +
		"of the NBA, and it will be marketing its NBA affiliation in the US and in China. " +
		"The laptop maker has a similar marketing and technology partnership with the Olympic Games."
	doc := bestjoin.NewDocument(body)
	lex := bestjoin.BuiltinLexicon()
	// "PC maker" is a concept: with knowledge of which companies are
	// PC makers (the paper's footnote 1), its match list is the union
	// of the entity matches.
	pcMaker := bestjoin.NewUnionMatcher("PC maker",
		bestjoin.NewExactMatcher("lenovo"),
		bestjoin.NewExactMatcher("dell"),
		bestjoin.NewExactMatcher("hewlett"),
	)
	lists := doc.MatchQuery(
		pcMaker,
		bestjoin.NewLexicalMatcher("sports", lex),
		bestjoin.NewLexicalMatcher("partnership", lex),
	)
	if err := lists.Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := bestjoin.BestValidMED(bestjoin.ExpMED{Alpha: 0.1}, lists)
	if !res.OK {
		t.Fatal("no matchset found")
	}
	words := make([]string, len(res.Set))
	for j, m := range res.Set {
		words[j] = doc.Tokens[m.Loc].Word
	}
	if words[0] != "lenovo" || words[1] != "nba" || words[2] != "partner" {
		t.Errorf("pipeline answer = %v, want [lenovo nba partner]", words)
	}
}

func TestCheckersExposedAndPassOnBuiltins(t *testing.T) {
	if err := bestjoin.CheckWIN(bestjoin.ExpWIN{Alpha: 0.1}, 4, 2000, 1); err != nil {
		t.Error(err)
	}
	if err := bestjoin.CheckMED(bestjoin.ExpMED{Alpha: 0.1}, 4, 2000, 1); err != nil {
		t.Error(err)
	}
	if err := bestjoin.CheckMAX(bestjoin.SumMAX{Alpha: 0.1}, 4, 2000, 1); err != nil {
		t.Error(err)
	}
	if err := bestjoin.CheckAtMostOneCrossing(bestjoin.SumMAX{Alpha: 0.1}, 2, 200, 0, 100, 1); err != nil {
		t.Error(err)
	}
}

func ExampleBestWIN() {
	lists := bestjoin.MatchLists{
		{{Loc: 3, Score: 0.9}, {Loc: 40, Score: 1.0}},
		{{Loc: 5, Score: 0.8}},
	}
	res := bestjoin.BestWIN(bestjoin.ExpWIN{Alpha: 0.1}, lists)
	fmt.Printf("%v score=%.3f\n", res.Set, res.Score)
	// Output: (3:0.900, 5:0.800) score=0.589
}

func ExampleByLocationMED() {
	lists := bestjoin.MatchLists{
		{{Loc: 10, Score: 0.9}, {Loc: 100, Score: 0.9}},
		{{Loc: 12, Score: 0.8}, {Loc: 103, Score: 0.8}},
	}
	for _, a := range bestjoin.ByLocationMED(bestjoin.ExpMED{Alpha: 0.1}, lists) {
		if a.Score > 0.3 {
			fmt.Println(a.Anchor)
		}
	}
	// Output:
	// 12
	// 103
}

// TestConfigFieldCeiling is a ratchet on the settable surface: the
// exported fields of the three config types a deployment fills in. A
// change may delete fields and lower the ceiling; one that adds a field
// fails here.
func TestConfigFieldCeiling(t *testing.T) {
	const ceiling = 14
	n := 0
	for _, v := range []any{bestjoin.EngineConfig{}, bestjoin.ShardedEngineConfig{}, bestjoin.RemoteShardConfig{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
	}
	if n > ceiling {
		t.Fatalf("%d exported config fields, more than the ceiling of %d", n, ceiling)
	}
}
