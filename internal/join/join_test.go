package join

import (
	"math"
	"math/rand"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/naive"
	"bestjoin/internal/randinst"
	"bestjoin/internal/scorefn"
)

// maxULPs bounds how far a kernel's score may sit from internal/naive's
// for the same optimum, and from its own witness re-scored: the two
// evaluate the same products and exponentials in different orders. It
// is the largest distance these seeded tests measure, over both orders
// their maps iterate in: 31 for ExpWIN, 26 between MAXGeneral and MAX,
// 10 for the weighted WIN; the MED and MAX kernels agree with naive
// bitwise. LinearWIN subtracts the window from a sum of scores, and its
// small optima lose bits to that cancellation: linearWINULPs.
const (
	maxULPs       = 31
	linearWINULPs = 1024
)

// ulps is the distance between a and b in units in the last place: how
// many float64 values lie between them, plus one (0 when equal; +0 and
// −0 are equal).
func ulps(a, b float64) uint64 {
	ordered := func(f float64) uint64 {
		if b := int64(math.Float64bits(f)); b < 0 {
			return uint64(math.MinInt64 - b)
		}
		return math.Float64bits(f)
	}
	x, y := ordered(a), ordered(b)
	return max(x, y) - min(x, y)
}

// agree fails the test unless the fast and naive results have the same
// existence and, when both exist, the same (optimal) score within bound
// ulps. Matchsets themselves may differ: many matchsets can tie for the
// optimum.
func agree(t *testing.T, name string, bound uint64, lists match.Lists,
	fastSet match.Set, fastScore float64, fastOK bool,
	naiveSet match.Set, naiveScore float64, naiveOK bool) {
	t.Helper()
	if fastOK != naiveOK {
		t.Fatalf("%s: ok=%v but naive ok=%v on %v", name, fastOK, naiveOK, lists)
	}
	if !fastOK {
		return
	}
	if ulps(fastScore, naiveScore) > bound {
		t.Fatalf("%s: score %v != naive optimum %v\nfast %v\nnaive %v\nlists %v",
			name, fastScore, naiveScore, fastSet, naiveSet, lists)
	}
}

func randConfigs() []randinst.Config {
	return []randinst.Config{
		{Terms: 1, MaxPerList: 6, MaxLoc: 50},
		{Terms: 2, MaxPerList: 6, MaxLoc: 60},
		{Terms: 3, MaxPerList: 5, MaxLoc: 80},
		{Terms: 4, MaxPerList: 4, MaxLoc: 100},
		{Terms: 5, MaxPerList: 3, MaxLoc: 100},
		{Terms: 3, MaxPerList: 5, MaxLoc: 12, AllowTies: true},
		{Terms: 4, MaxPerList: 4, MaxLoc: 10, AllowTies: true},
		{Terms: 2, MaxPerList: 6, MaxLoc: 8, AllowTies: true},
		{Terms: 3, MaxPerList: 4, MaxLoc: 60, AllowEmpty: true},
	}
}

func TestWINMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	fns := map[string]scorefn.WIN{
		"ExpWIN":    scorefn.ExpWIN{Alpha: 0.1},
		"LinearWIN": scorefn.LinearWIN{Scale: 0.3},
	}
	bounds := map[string]uint64{"ExpWIN": maxULPs, "LinearWIN": linearWINULPs}
	for name, fn := range fns {
		for _, cfg := range randConfigs() {
			for trial := 0; trial < 150; trial++ {
				lists := randinst.Lists(rng, cfg)
				fs, fScore, fOK := WIN(fn, lists)
				ns, nScore, nOK := naive.WIN(fn, lists)
				agree(t, "WIN/"+name, bounds[name], lists, fs, fScore, fOK, ns, nScore, nOK)
				if fOK {
					// The returned matchset's own score must equal the
					// reported score.
					if got := scorefn.ScoreWIN(fn, fs); ulps(got, fScore) > bounds[name] {
						t.Fatalf("WIN/%s: reported %v but set scores %v: %v", name, fScore, got, fs)
					}
				}
			}
		}
	}
}

func TestMEDMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	fns := map[string]scorefn.MED{
		"ExpMED":    scorefn.ExpMED{Alpha: 0.1},
		"LinearMED": scorefn.LinearMED{Scale: 0.3},
	}
	for name, fn := range fns {
		for _, cfg := range randConfigs() {
			for trial := 0; trial < 150; trial++ {
				lists := randinst.Lists(rng, cfg)
				fs, fScore, fOK := MED(fn, lists)
				ns, nScore, nOK := naive.MED(fn, lists)
				agree(t, "MED/"+name, maxULPs, lists, fs, fScore, fOK, ns, nScore, nOK)
				if fOK {
					if got := scorefn.ScoreMED(fn, fs); ulps(got, fScore) > maxULPs {
						t.Fatalf("MED/%s: reported %v but set scores %v: %v", name, fScore, got, fs)
					}
				}
			}
		}
	}
}

func TestMAXMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	fns := map[string]scorefn.EfficientMAX{
		"SumMAX":  scorefn.SumMAX{Alpha: 0.1},
		"ProdMAX": scorefn.ProdMAX{Alpha: 0.1},
	}
	for name, fn := range fns {
		for _, cfg := range randConfigs() {
			for trial := 0; trial < 150; trial++ {
				lists := randinst.Lists(rng, cfg)
				fs, fScore, fOK := MAX(fn, lists)
				ns, nScore, nOK := naive.MAX(fn, lists)
				agree(t, "MAX/"+name, maxULPs, lists, fs, fScore, fOK, ns, nScore, nOK)
				if fOK {
					if got, _ := scorefn.ScoreMAX(fn, fs); ulps(got, fScore) > maxULPs {
						t.Fatalf("MAX/%s: reported %v but set scores %v: %v", name, fScore, got, fs)
					}
				}
			}
		}
	}
}

func TestMAXGeneralMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	fn := scorefn.SumMAX{Alpha: 0.1}
	for trial := 0; trial < 200; trial++ {
		lists := randinst.Lists(rng, randinst.Config{Terms: 3, MaxPerList: 4, MaxLoc: 50, AllowTies: true})
		fs, fScore, fOK := MAXGeneral(fn, lists)
		ns, nScore, nOK := naive.MAX(fn, lists)
		agree(t, "MAXGeneral", maxULPs, lists, fs, fScore, fOK, ns, nScore, nOK)
	}
}

func TestMAXGeneralAgreesWithSpecialized(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	fn := scorefn.ProdMAX{Alpha: 0.2}
	for trial := 0; trial < 200; trial++ {
		lists := randinst.Lists(rng, randinst.Config{Terms: 4, MaxPerList: 4, MaxLoc: 60})
		_, gScore, gOK := MAXGeneral(fn, lists)
		_, sScore, sOK := MAX(fn, lists)
		if gOK != sOK {
			t.Fatalf("ok mismatch: general %v specialized %v", gOK, sOK)
		}
		if gOK && ulps(gScore, sScore) > maxULPs {
			t.Fatalf("general %v != specialized %v on %v", gScore, sScore, lists)
		}
	}
}

func TestEmptyListMeansNoMatchset(t *testing.T) {
	lists := match.Lists{{{Loc: 1, Score: 1}}, {}}
	if _, _, ok := WIN(scorefn.ExpWIN{Alpha: 0.1}, lists); ok {
		t.Error("WIN ok with empty list")
	}
	if _, _, ok := MED(scorefn.ExpMED{Alpha: 0.1}, lists); ok {
		t.Error("MED ok with empty list")
	}
	if _, _, ok := MAX(scorefn.SumMAX{Alpha: 0.1}, lists); ok {
		t.Error("MAX ok with empty list")
	}
	if _, _, ok := MAXGeneral(scorefn.SumMAX{Alpha: 0.1}, lists); ok {
		t.Error("MAXGeneral ok with empty list")
	}
}

func TestSingleTermSingleMatch(t *testing.T) {
	lists := match.Lists{{{Loc: 42, Score: 0.7}}}
	s, sc, ok := WIN(scorefn.ExpWIN{Alpha: 0.1}, lists)
	if !ok || len(s) != 1 || s[0].Loc != 42 {
		t.Fatalf("WIN single = %v %v %v", s, sc, ok)
	}
	if ulps(sc, 0.7) > maxULPs {
		t.Errorf("WIN single score = %v, want 0.7 (window 0)", sc)
	}
	s, sc, ok = MED(scorefn.ExpMED{Alpha: 0.1}, lists)
	if !ok || s[0].Loc != 42 || ulps(sc, 0.7) > maxULPs {
		t.Errorf("MED single = %v %v %v", s, sc, ok)
	}
	s, sc, ok = MAX(scorefn.SumMAX{Alpha: 0.1}, lists)
	if !ok || s[0].Loc != 42 || ulps(sc, 0.7) > maxULPs {
		t.Errorf("MAX single = %v %v %v", s, sc, ok)
	}
}

func TestWINPrefersTightCluster(t *testing.T) {
	// Two clusters: a tight low-score one and a spread high-score one.
	// With strong decay the tight cluster must win; with weak decay the
	// high-score one must.
	lists := match.Lists{
		{{Loc: 10, Score: 0.6}, {Loc: 100, Score: 1.0}},
		{{Loc: 11, Score: 0.6}, {Loc: 140, Score: 1.0}},
	}
	s, _, ok := WIN(scorefn.ExpWIN{Alpha: 1.0}, lists)
	if !ok || s[0].Loc != 10 || s[1].Loc != 11 {
		t.Errorf("strong decay picked %v, want tight cluster", s)
	}
	s, _, ok = WIN(scorefn.ExpWIN{Alpha: 0.001}, lists)
	if !ok || s[0].Loc != 100 || s[1].Loc != 140 {
		t.Errorf("weak decay picked %v, want high-score cluster", s)
	}
}

func TestMEDPrefersClusterednessOverWindow(t *testing.T) {
	// Figure 2's motivating case: two matchsets with equal enclosing
	// windows, one clustered around its median, one spread out evenly.
	// MED must score the clustered one higher.
	clustered := match.Set{
		{Loc: 0, Score: 0.5}, {Loc: 48, Score: 0.5}, {Loc: 50, Score: 0.5}, {Loc: 52, Score: 0.5}, {Loc: 100, Score: 0.5},
	}
	spread := match.Set{
		{Loc: 0, Score: 0.5}, {Loc: 25, Score: 0.5}, {Loc: 50, Score: 0.5}, {Loc: 75, Score: 0.5}, {Loc: 100, Score: 0.5},
	}
	if clustered.Window() != spread.Window() {
		t.Fatal("test setup: windows differ")
	}
	fn := scorefn.ExpMED{Alpha: 0.1}
	if scorefn.ScoreMED(fn, clustered) <= scorefn.ScoreMED(fn, spread) {
		t.Error("MED did not prefer the clustered matchset")
	}
	// WIN by construction cannot distinguish them.
	wfn := scorefn.ExpWIN{Alpha: 0.1}
	if scorefn.ScoreWIN(wfn, clustered) != scorefn.ScoreWIN(wfn, spread) {
		t.Error("WIN distinguished equal-window equal-score matchsets")
	}
}

func TestMAXAnchorsNearHighScores(t *testing.T) {
	// MAX anchors matchsets near the matches we are most confident in:
	// with one very strong match and weak distant ones, the anchor
	// should sit at the strong match.
	fn := scorefn.SumMAX{Alpha: 0.5}
	s := match.Set{{Loc: 10, Score: 1.0}, {Loc: 30, Score: 0.1}, {Loc: 50, Score: 0.1}}
	_, anchor := scorefn.ScoreMAX(fn, s)
	if anchor != 10 {
		t.Errorf("anchor = %d, want 10 (the high-confidence match)", anchor)
	}
}

func TestWINTooManyTermsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WIN did not panic beyond MaxWINTerms")
		}
	}()
	lists := make(match.Lists, MaxWINTerms+1)
	for j := range lists {
		lists[j] = match.List{{Loc: j, Score: 1}}
	}
	WIN(scorefn.ExpWIN{Alpha: 0.1}, lists)
}

// Lemma 1 randomized check: replacing a match with one that dominates
// it at median(M) never lowers the MED score.
func TestLemma1Replacement(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	fn := scorefn.LinearMED{Scale: 0.3}
	for trial := 0; trial < 3000; trial++ {
		q := 2 + rng.Intn(4)
		set := make(match.Set, q)
		for j := range set {
			set[j] = match.Match{Loc: rng.Intn(100), Score: 1 - rng.Float64()}
		}
		j := rng.Intn(q)
		alt := match.Match{Loc: rng.Intn(100), Score: 1 - rng.Float64()}
		med := set.Median()
		if scorefn.MEDContribution(fn, j, alt, med) < scorefn.MEDContribution(fn, j, set[j], med) {
			continue // alt does not dominate at the median; lemma silent
		}
		before := scorefn.ScoreMED(fn, set)
		after := set.Clone()
		after[j] = alt
		if got := scorefn.ScoreMED(fn, after); got < before && ulps(got, before) > maxULPs {
			t.Fatalf("Lemma 1 violated: replacing %v with %v in %v dropped score %v -> %v",
				set[j], alt, set, before, scorefn.ScoreMED(fn, after))
		}
	}
}

func TestWeightedWINMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	fn := scorefn.WeightedWIN{Base: scorefn.ExpWIN{Alpha: 0.1}, Weights: []float64{2, 0.5, 1.5}}
	for trial := 0; trial < 300; trial++ {
		lists := randinst.Lists(rng, randinst.Config{Terms: 3, MaxPerList: 4, MaxLoc: 60, AllowTies: trial%2 == 0})
		_, fScore, fOK := WIN(fn, lists)
		_, nScore, nOK := naive.WIN(fn, lists)
		if fOK != nOK || (fOK && ulps(fScore, nScore) > maxULPs) {
			t.Fatalf("weighted WIN %v/%v != naive %v/%v on %v", fScore, fOK, nScore, nOK, lists)
		}
	}
}

func TestWeightedMEDMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(708))
	fn := scorefn.WeightedMED{Base: scorefn.ExpMED{Alpha: 0.1}, Weights: []float64{2, 0.5, 1.5}}
	for trial := 0; trial < 300; trial++ {
		lists := randinst.Lists(rng, randinst.Config{Terms: 3, MaxPerList: 4, MaxLoc: 60, AllowTies: trial%2 == 0})
		_, fScore, fOK := MED(fn, lists)
		_, nScore, nOK := naive.MED(fn, lists)
		if fOK != nOK || (fOK && ulps(fScore, nScore) > maxULPs) {
			t.Fatalf("weighted MED %v/%v != naive %v/%v on %v", fScore, fOK, nScore, nOK, lists)
		}
	}
}
