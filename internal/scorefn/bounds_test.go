// Score-cap contract tests (external test package so they can
// cross-check against internal/naive, which itself imports scorefn):
// for each family and both concrete instances — exponential decay and
// linear — the cap computed from per-list maxima must dominate the
// true best-join score of every enumerable instance, and must be
// attained exactly when the proximity penalty is zero.
package scorefn_test

import (
	"math"
	"math/rand"
	"strings"
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

// Each family's list-max rung, as its join kernel takes it.
func capWIN(fn scorefn.WIN, maxima []float64, minMatch int) float64 {
	return scorefn.ListMaxCap(fn, maxima, minMatch, fn.G, func(s float64) float64 { return scorefn.CapWIN(fn, s, 0, 0) })
}

func capMED(fn scorefn.MED, maxima []float64) float64 {
	return scorefn.ListMaxCap(fn, maxima, 0, fn.G, func(s float64) float64 { return scorefn.CapMED(fn, s, 0, 0) })
}

func capMAX(fn scorefn.MAX, maxima []float64) float64 {
	return scorefn.ListMaxCap(fn, maxima, 0, func(j int, x float64) float64 { return fn.Contribution(j, x, 0) }, fn.F)
}

// windowCaps are the WIN and MED window caps over per-list maxima.
func windowCaps(win scorefn.WIN, med scorefn.MED, maxima []float64, w int) (float64, float64) {
	gw, mw, gm, mm := 0.0, 0.0, 0.0, 0.0
	for j, x := range maxima {
		gw, mw = gw+win.G(j, x), mw+math.Abs(win.G(j, x))
		gm, mm = gm+med.G(j, x), mm+math.Abs(med.G(j, x))
	}
	return scorefn.CapWIN(win, gw, mw, w), scorefn.CapMED(med, gm, mm, w)
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
		if bound := capWIN(fn, perListMax(lists), 0); score > bound {
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
		if bound := capMED(fn, perListMax(lists)); score > bound {
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
		if bound := capMAX(fn, perListMax(lists)); score > bound {
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
		if _, score, _ := naive.WIN(winFn, lists); score != capWIN(winFn, maxima, 0) {
			t.Fatalf("trial %d: WIN bound not tight: best %v, bound %v", trial, score, capWIN(winFn, maxima, 0))
		}
		medFn := scorefn.LinearMED{Scale: 0.3}
		if _, score, _ := naive.MED(medFn, lists); score != capMED(medFn, maxima) {
			t.Fatalf("trial %d: MED bound not tight: best %v, bound %v", trial, score, capMED(medFn, maxima))
		}
		maxFn := scorefn.SumMAX{Alpha: 0.1}
		if _, score, _ := naive.MAX(maxFn, lists); score != capMAX(maxFn, maxima) {
			t.Fatalf("trial %d: MAX bound not tight: best %v, bound %v", trial, score, capMAX(maxFn, maxima))
		}
	}
}

// TestUnionUpperBoundDominatesPartialMatches is the regression the
// conjunctive cap would fail: under product-style scoring a subset join
// can exceed the full-set cap (see TestUnionUpperBoundSingleListRegime),
// so the disjunctive cap maximizes over admissible subset sizes. Its
// sorted prefixes dominate only for term-exchangeable functions: the
// weighted ones take no disjunctive cap (+Inf) and pass the checker's
// union arm, and a weighted function claiming exchangeability fails it.
func TestUnionUpperBoundDominatesPartialMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	weighted := scorefn.WeightedWIN{Base: scorefn.LinearWIN{Scale: 0.01}, Weights: []float64{0.5, 2}}
	if got := capWIN(weighted, []float64{0.2, 1}, 1); !math.IsInf(got, 1) {
		t.Fatalf("weighted union cap %v, want +Inf", got)
	}
	for _, fn := range []scorefn.WIN{weighted, scorefn.WeightedWIN{Base: scorefn.ExpWIN{Alpha: 0.1}, Weights: []float64{1.5, 0.5, 2}}} {
		if err := scorefn.CheckCapWIN(fn, 3, 60, rng); err != nil {
			t.Errorf("%#v: %v", fn, err)
		}
	}
	med := scorefn.WeightedMED{Base: scorefn.LinearMED{Scale: 0.3}, Weights: []float64{1.5, 0.5, 2}}
	if err := scorefn.CheckCapMED(med, 3, 60, rng); err != nil {
		t.Errorf("%#v: %v", med, err)
	}
	if err := scorefn.CheckCapWIN(claimsExchangeable{weighted}, 2, 200, rng); err == nil || !strings.Contains(err.Error(), "union") {
		t.Fatalf("a term-dependent union cap passed the checker: %v", err)
	}
}

// claimsExchangeable is a term-dependent WIN that claims otherwise.
type claimsExchangeable struct{ scorefn.WeightedWIN }

func (claimsExchangeable) TermExchangeable() {}

// TestUnionUpperBoundSingleListRegime pins the concrete counterexample
// above: the union cap with minMatch=1 must be at least the best
// single-list score, where the conjunctive full-set cap is not.
func TestUnionUpperBoundSingleListRegime(t *testing.T) {
	fn := scorefn.ExpWIN{Alpha: 0.1}
	conj := capWIN(fn, []float64{0.5, 0.5}, 0)
	if conj >= 0.5 {
		t.Fatalf("premise broken: conjunctive cap %v should sit below the single-list score 0.5", conj)
	}
	if got := capWIN(fn, []float64{0.5, 0.5}, 1); got < 0.5 {
		t.Fatalf("union cap %v below the single-list score 0.5", got)
	}
	// m=n degenerates to the conjunctive cap.
	if got := capWIN(fn, []float64{0.5, 0.5}, 2); got != conj {
		t.Fatalf("union cap at m=n is %v, want conjunctive cap %v", got, conj)
	}
}

// TestCheckUpperBound runs the contract checkers over every concrete
// instance, including the per-term weighted wrappers and the MED
// adapter, at one to four terms.
func TestCheckUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	weights := []float64{1.5, 0.5, 2}
	for terms := 1; terms <= 4; terms++ {
		for _, fn := range []scorefn.WIN{
			scorefn.ExpWIN{Alpha: 0.1},
			scorefn.LinearWIN{Scale: 0.3},
			scorefn.WeightedWIN{Base: scorefn.ExpWIN{Alpha: 0.1}, Weights: weights},
		} {
			if err := scorefn.CheckCapWIN(fn, terms, 80, rng); err != nil {
				t.Errorf("%#v, %d terms: %v", fn, terms, err)
			}
		}
		for _, fn := range []scorefn.MED{
			scorefn.ExpMED{Alpha: 0.1},
			scorefn.LinearMED{Scale: 0.3},
			scorefn.WeightedMED{Base: scorefn.LinearMED{Scale: 0.3}, Weights: weights},
		} {
			if err := scorefn.CheckCapMED(fn, terms, 80, rng); err != nil {
				t.Errorf("%#v, %d terms: %v", fn, terms, err)
			}
		}
		for _, fn := range []scorefn.MAX{
			scorefn.SumMAX{Alpha: 0.1},
			scorefn.ProdMAX{Alpha: 0.1},
			scorefn.MEDAsMAX{MED: scorefn.LinearMED{Scale: 0.3}},
		} {
			if err := scorefn.CheckCapMAX(fn, terms, 80, rng); err != nil {
				t.Errorf("%#v, %d terms: %v", fn, terms, err)
			}
		}
	}
}

// TestWindowUpperBound cross-checks the window caps against
// internal/naive: the exhaustive optimum of a random instance never
// exceeds the cap taken at the instance's own smallest window, while a
// cap taken one location wider than that is no bound at all for the
// tight instance.
func TestWindowUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	win := scorefn.WeightedWIN{Base: scorefn.ExpWIN{Alpha: 0.1}, Weights: []float64{1.5, 0.5, 2}}
	med := scorefn.LinearMED{Scale: 0.3}
	for trial := 0; trial < 600; trial++ {
		lists := randLists(rng, 1+rng.Intn(4))
		wmin := math.MaxInt
		naive.ForEach(lists, func(s match.Set) { wmin = min(wmin, s.Window()) })
		capW, capM := windowCaps(win, med, perListMax(lists), wmin)
		if _, score, _ := naive.WIN(win, lists); score > capW {
			t.Fatalf("trial %d: naive WIN score %v exceeds the window cap at wmin %d (lists %v)", trial, score, wmin, lists)
		}
		if _, score, _ := naive.MED(med, lists); score > capM {
			t.Fatalf("trial %d: naive MED score %v exceeds the window cap at wmin %d (lists %v)", trial, score, wmin, lists)
		}
	}
	tight := match.Lists{{{Loc: 3, Score: 0.9}}, {{Loc: 5, Score: 0.8}}}
	capW, capM := windowCaps(win, med, perListMax(tight), 3)
	if _, score, _ := naive.WIN(win, tight); !(score > capW) {
		t.Fatal("WIN cap at a window wider than the instance's still dominates: the window is not in the cap")
	}
	if _, score, _ := naive.MED(med, tight); !(score > capM) {
		t.Fatal("MED cap at a window wider than the instance's still dominates: the window is not in the cap")
	}
}
