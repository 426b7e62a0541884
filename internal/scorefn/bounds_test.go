// Upper-bound contract tests (external test package so they can
// cross-check against internal/naive, which itself imports scorefn):
// for each family and both concrete instances — exponential decay and
// linear — the bound computed from per-list maxima must dominate the
// true best-join score of every enumerable instance, and must be
// attained exactly when the proximity penalty is zero.
package scorefn_test

import (
	"math"
	"math/rand"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/naive"
	"bestjoin/internal/randinst"
	"bestjoin/internal/scorefn"
)

// perListMax extracts the maximum match score of each list — the
// quantity the engine's pruning layer feeds into the bounds.
func perListMax(lists match.Lists) []float64 {
	out := make([]float64, len(lists))
	for j, l := range lists {
		out[j] = l[0].Score
		for _, m := range l {
			if m.Score > out[j] {
				out[j] = m.Score
			}
		}
	}
	return out
}

// randLists draws a random complete instance with 1–4 matches per
// list, ties allowed (shared locations are exactly the zero-penalty
// regime the bounds must stay sound in).
func randLists(rng *rand.Rand, terms int) match.Lists {
	return randinst.Lists(rng, randinst.Config{
		Terms: terms, MaxPerList: 4, MaxLoc: 40, AllowTies: true,
	})
}

func TestUpperBoundWINDominatesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fns := []scorefn.WIN{scorefn.ExpWIN{Alpha: 0.1}, scorefn.LinearWIN{Scale: 0.3}}
	for trial := 0; trial < 400; trial++ {
		fn := fns[trial%len(fns)]
		lists := randLists(rng, 1+rng.Intn(3))
		best, score, ok := naive.WIN(fn, lists)
		if !ok {
			t.Fatal("naive found no matchset on a complete instance")
		}
		if bound := scorefn.UpperBoundWIN(fn, perListMax(lists)); score > bound {
			t.Fatalf("trial %d: naive WIN score %v exceeds bound %v (best %v, lists %v)",
				trial, score, bound, best, lists)
		}
	}
}

func TestUpperBoundMEDDominatesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fns := []scorefn.MED{scorefn.ExpMED{Alpha: 0.1}, scorefn.LinearMED{Scale: 0.3}}
	for trial := 0; trial < 400; trial++ {
		fn := fns[trial%len(fns)]
		lists := randLists(rng, 1+rng.Intn(3))
		best, score, ok := naive.MED(fn, lists)
		if !ok {
			t.Fatal("naive found no matchset on a complete instance")
		}
		if bound := scorefn.UpperBoundMED(fn, perListMax(lists)); score > bound {
			t.Fatalf("trial %d: naive MED score %v exceeds bound %v (best %v, lists %v)",
				trial, score, bound, best, lists)
		}
	}
}

func TestUpperBoundMAXDominatesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fns := []scorefn.MAX{scorefn.SumMAX{Alpha: 0.1}, scorefn.ProdMAX{Alpha: 0.1}}
	for trial := 0; trial < 400; trial++ {
		fn := fns[trial%len(fns)]
		lists := randLists(rng, 1+rng.Intn(3))
		best, score, ok := naive.MAX(fn, lists)
		if !ok {
			t.Fatal("naive found no matchset on a complete instance")
		}
		if bound := scorefn.UpperBoundMAX(fn, perListMax(lists)); score > bound {
			t.Fatalf("trial %d: naive MAX score %v exceeds bound %v (best %v, lists %v)",
				trial, score, bound, best, lists)
		}
	}
}

// TestUpperBoundTightAtZeroPenalty plants every list's maximum at one
// shared location: the best join then pays no proximity penalty, so
// the bound must be achieved exactly (not merely approached).
func TestUpperBoundTightAtZeroPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		terms := 1 + rng.Intn(3)
		shared := 5 + rng.Intn(20)
		lists := make(match.Lists, terms)
		maxima := make([]float64, terms)
		for j := range lists {
			maxima[j] = 0.5 + rng.Float64()/2
			lists[j] = match.List{{Loc: shared, Score: maxima[j]}}
			// Extra strictly weaker matches elsewhere must not matter.
			for e := rng.Intn(3); e > 0; e-- {
				lists[j] = append(lists[j], match.Match{Loc: shared + 1 + rng.Intn(10), Score: maxima[j] / 2})
			}
			lists[j].Sort()
		}
		winFn := scorefn.ExpWIN{Alpha: 0.1}
		if _, score, _ := naive.WIN(winFn, lists); score != scorefn.UpperBoundWIN(winFn, maxima) {
			t.Fatalf("trial %d: WIN bound not tight: best %v, bound %v",
				trial, score, scorefn.UpperBoundWIN(winFn, maxima))
		}
		medFn := scorefn.LinearMED{Scale: 0.3}
		if _, score, _ := naive.MED(medFn, lists); score != scorefn.UpperBoundMED(medFn, maxima) {
			t.Fatalf("trial %d: MED bound not tight: best %v, bound %v",
				trial, score, scorefn.UpperBoundMED(medFn, maxima))
		}
		maxFn := scorefn.SumMAX{Alpha: 0.1}
		if _, score, _ := naive.MAX(maxFn, lists); score != scorefn.UpperBoundMAX(maxFn, maxima) {
			t.Fatalf("trial %d: MAX bound not tight: best %v, bound %v",
				trial, score, scorefn.UpperBoundMAX(maxFn, maxima))
		}
	}
}

// TestUnionUpperBoundDominatesPartialMatches is the regression the
// conjunctive bounds would fail: under product-style scoring a subset
// join can exceed the full-set cap (two lists of max 0.5 give an ExpWIN
// full-set bound of 0.25 while a single-list match scores 0.5), so the
// disjunctive bound must maximize over admissible subset sizes. The
// in-package checkers enumerate every subset of ≥ minMatch lists.
func TestUnionUpperBoundDominatesPartialMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, fn := range []scorefn.WIN{scorefn.ExpWIN{Alpha: 0.1}, scorefn.LinearWIN{Scale: 0.3}} {
		if err := scorefn.CheckUnionUpperBoundWIN(fn, 3, 60, rng); err != nil {
			t.Errorf("%#v: %v", fn, err)
		}
	}
	for _, fn := range []scorefn.MED{scorefn.ExpMED{Alpha: 0.1}, scorefn.LinearMED{Scale: 0.3}} {
		if err := scorefn.CheckUnionUpperBoundMED(fn, 3, 60, rng); err != nil {
			t.Errorf("%#v: %v", fn, err)
		}
	}
	for _, fn := range []scorefn.MAX{scorefn.SumMAX{Alpha: 0.1}, scorefn.ProdMAX{Alpha: 0.1}} {
		if err := scorefn.CheckUnionUpperBoundMAX(fn, 3, 60, rng); err != nil {
			t.Errorf("%#v: %v", fn, err)
		}
	}
}

// TestUnionUpperBoundSingleListRegime pins the concrete counterexample
// above: the union bound with minMatch=1 must be at least the best
// single-list score, where the conjunctive full-set bound is not.
func TestUnionUpperBoundSingleListRegime(t *testing.T) {
	fn := scorefn.ExpWIN{Alpha: 0.1}
	maxima := []float64{0.5, 0.5}
	conj := scorefn.UpperBoundWIN(fn, maxima)
	if conj >= 0.5 {
		t.Fatalf("premise broken: conjunctive bound %v should sit below the single-list score 0.5", conj)
	}
	if got := scorefn.UnionUpperBoundWIN(fn, maxima, 1); got < 0.5 {
		t.Fatalf("union bound %v below the single-list score 0.5", got)
	}
	// m=n degenerates to the conjunctive cap.
	if got := scorefn.UnionUpperBoundWIN(fn, maxima, 2); got != conj {
		t.Fatalf("union bound at m=n is %v, want conjunctive cap %v", got, conj)
	}
}

// TestCheckUpperBound runs the in-package contract checkers over every
// concrete instance, including the per-term weighted wrappers.
func TestCheckUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	weights := []float64{1.5, 0.5, 2}
	for _, fn := range []scorefn.WIN{
		scorefn.ExpWIN{Alpha: 0.1},
		scorefn.LinearWIN{Scale: 0.3},
		scorefn.WeightedWIN{Base: scorefn.LinearWIN{Scale: 0.3}, Weights: weights},
	} {
		if err := scorefn.CheckUpperBoundWIN(fn, 3, 60, rng); err != nil {
			t.Errorf("%#v: %v", fn, err)
		}
	}
	for _, fn := range []scorefn.MED{
		scorefn.ExpMED{Alpha: 0.1},
		scorefn.LinearMED{Scale: 0.3},
		scorefn.WeightedMED{Base: scorefn.LinearMED{Scale: 0.3}, Weights: weights},
	} {
		if err := scorefn.CheckUpperBoundMED(fn, 3, 60, rng); err != nil {
			t.Errorf("%#v: %v", fn, err)
		}
	}
	for _, fn := range []scorefn.MAX{
		scorefn.SumMAX{Alpha: 0.1},
		scorefn.ProdMAX{Alpha: 0.1},
		scorefn.MEDAsMAX{MED: scorefn.LinearMED{Scale: 0.3}},
	} {
		if err := scorefn.CheckUpperBoundMAX(fn, 3, 60, rng); err != nil {
			t.Errorf("%#v: %v", fn, err)
		}
	}
}

// TestWindowUpperBound: the window bounds' contract, checked two ways.
// The in-package checkers enumerate small crowded and hostile
// instances (duplicated locations, zero, negative and NaN scores) for
// every shipped instance, the non-separable weighted WIN included, at
// one to four terms. And against internal/naive: the exhaustive
// optimum of a random instance never exceeds the bound taken at the
// instance's own smallest window, while a bound taken one location
// wider than that is no bound at all for the tight instance.
func TestWindowUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	weights := []float64{1.5, 0.5, 2}
	wins := []scorefn.WIN{
		scorefn.ExpWIN{Alpha: 0.1},
		scorefn.LinearWIN{Scale: 0.3},
		scorefn.WeightedWIN{Base: scorefn.ExpWIN{Alpha: 0.1}, Weights: weights},
	}
	meds := []scorefn.MED{
		scorefn.ExpMED{Alpha: 0.1},
		scorefn.LinearMED{Scale: 0.3},
		scorefn.WeightedMED{Base: scorefn.LinearMED{Scale: 0.3}, Weights: weights},
	}
	for terms := 1; terms <= 4; terms++ {
		for _, fn := range wins {
			if err := scorefn.CheckWindowUpperBoundWIN(fn, terms, 80, rng); err != nil {
				t.Errorf("%#v, %d terms: %v", fn, terms, err)
			}
		}
		for _, fn := range meds {
			if err := scorefn.CheckWindowUpperBoundMED(fn, terms, 80, rng); err != nil {
				t.Errorf("%#v, %d terms: %v", fn, terms, err)
			}
		}
	}
	for trial := 0; trial < 600; trial++ {
		lists := randLists(rng, 1+rng.Intn(4))
		maxima := perListMax(lists)
		wmin := math.MaxInt
		naive.ForEach(lists, func(s match.Set) { wmin = min(wmin, s.Window()) })
		win, med := wins[trial%len(wins)], meds[trial%len(meds)]
		if _, score, _ := naive.WIN(win, lists); score > scorefn.WindowUpperBoundWIN(win, maxima, wmin) {
			t.Fatalf("trial %d: naive WIN score %v exceeds the window bound at wmin %d (lists %v)", trial, score, wmin, lists)
		}
		if _, score, _ := naive.MED(med, lists); score > scorefn.WindowUpperBoundMED(med, maxima, wmin) {
			t.Fatalf("trial %d: naive MED score %v exceeds the window bound at wmin %d (lists %v)", trial, score, wmin, lists)
		}
	}
	tight := match.Lists{{{Loc: 3, Score: 0.9}}, {{Loc: 5, Score: 0.8}}}
	maxima := perListMax(tight)
	if _, score, _ := naive.WIN(wins[0], tight); !(score > scorefn.WindowUpperBoundWIN(wins[0], maxima, 3)) {
		t.Fatal("WIN bound at a window wider than the instance's still dominates: the window is not in the bound")
	}
	if _, score, _ := naive.MED(meds[0], tight); !(score > scorefn.WindowUpperBoundMED(meds[0], maxima, 3)) {
		t.Fatal("MED bound at a window wider than the instance's still dominates: the window is not in the bound")
	}
}
