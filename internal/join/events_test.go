package join

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/naive"
	"bestjoin/internal/randinst"
	"bestjoin/internal/scorefn"
)

// crowded draws instances on few locations, so that terms share tokens
// and wmin is often 0; every third one has some scores replaced by
// what no contract-abiding caller sends (zero, negative, NaN) or by
// exact ones.
func crowded(rng *rand.Rand, trial int) match.Lists {
	lists := randinst.Lists(rng, randinst.Config{Terms: 1 + rng.Intn(4), MaxPerList: 4, MaxLoc: 4 + rng.Intn(40), AllowTies: true})
	if trial%3 == 0 {
		hostile := []float64{0, -0.5, math.NaN(), 1, 1}
		for _, l := range lists {
			for i := range l {
				if rng.Intn(4) == 0 {
					l[i].Score = hostile[rng.Intn(len(hostile))]
				}
			}
		}
	}
	return lists
}

// sameSet compares matchsets on locations and score bits (a NaN score
// equals itself).
func sameSet(a, b match.Set) bool {
	return slices.EqualFunc(a, b, func(x, y match.Match) bool {
		return x.Loc == y.Loc && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// TestEventStreamMatchesMerger: the stream is match.Merger's walk, event
// for event; its window pass finds the smallest window over the
// instance's whole cross product and sums g_j over the lists' maximum
// scores, so what the kernels compare with the floor is scorefn's bound
// over per-list maxima, to the bit.
func TestEventStreamMatchesMerger(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	fn := scorefn.LinearWIN{Scale: 0.3}
	var memo gMemo
	memo.bind(fn)
	var s eventStream
	for trial := 0; trial < 2000; trial++ {
		lists := crowded(rng, trial)
		if !s.load(lists) {
			t.Fatalf("trial %d: a complete instance did not load", trial)
		}
		want := match.Merged(lists)
		if len(s.events) != len(want) {
			t.Fatalf("trial %d: %d events, Merger yields %d", trial, len(s.events), len(want))
		}
		for i, ev := range s.events {
			if ev.Term != want[i].Term || ev.Pos != want[i].Pos || ev.M.Loc != want[i].M.Loc ||
				math.Float64bits(ev.M.Score) != math.Float64bits(want[i].M.Score) {
				t.Fatalf("trial %d event %d: %+v, Merger yields %+v", trial, i, ev, want[i])
			}
		}
		memo.grow(len(lists))
		wmin, gsum, mag, ok := s.window(&memo)
		smallest := math.MaxInt
		naive.ForEach(lists, func(set match.Set) { smallest = min(smallest, set.Window()) })
		if !ok || wmin != smallest {
			t.Fatalf("trial %d: wmin %d (ok %v), smallest window of the cross product %d\n%v", trial, wmin, ok, smallest, lists)
		}
		maxima := make([]float64, len(lists))
		for j, l := range lists {
			maxima[j] = math.Inf(-1)
			for _, m := range l {
				if m.Score > maxima[j] {
					maxima[j] = m.Score
				}
			}
		}
		if got, want := scorefn.WindowCapWIN(fn, gsum, mag, wmin), scorefn.WindowUpperBoundWIN(fn, maxima, wmin); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: the stream's cap %v is not WindowUpperBoundWIN of the per-list maxima, %v", trial, got, want)
		}
	}
	// A list out of location order breaks the scan's premise: the
	// stream still follows Merger, but the screen must stand down. An
	// incomplete instance loads nothing.
	lists := match.Lists{{{Loc: 9, Score: 0.5}, {Loc: 2, Score: 0.5}}, {{Loc: 5, Score: 0.5}}}
	if !s.load(lists) || len(s.events) != 3 {
		t.Fatalf("unsorted list: %d events", len(s.events))
	}
	if _, _, _, ok := s.window(&memo); ok {
		t.Fatal("unsorted list: the window pass did not stand down")
	}
	if s.load(match.Lists{lists[0], nil}) || s.load(nil) {
		t.Fatal("an incomplete instance loaded")
	}
}

// TestWindowScreen pins the screen's contract on the kernels
// themselves, where the bound meets scores summed in the dynamic
// program's order: armed with any floor, Join returns either the
// floorless answer to the bit or — only when that answer is strictly
// below the floor, or NaN, which nobody ranks — ok == false with the
// cut reported. Floors sit
// where a wrong comparison shows: the answer itself (equality never
// cuts), one ulp either side, NaN and both infinities; and the floor
// one ulp above must actually cut whenever the instance is the tight
// one, every list's maximum on one token.
func TestWindowScreen(t *testing.T) {
	weights := []float64{1.5, 0.5, 2, 0.25}
	kernels := map[string]func() (armed, bare Kernel){
		"ExpWIN": func() (Kernel, Kernel) { fn := scorefn.ExpWIN{Alpha: 0.1}; return NewWINKernel(fn), NewWINKernel(fn) },
		"LinearWIN": func() (Kernel, Kernel) {
			fn := scorefn.LinearWIN{Scale: 0.3}
			return NewWINKernel(fn), NewWINKernel(fn)
		},
		"genericWIN": func() (Kernel, Kernel) {
			fn := genericOnly{scorefn.ExpWIN{Alpha: 0.1}}
			return NewWINKernel(fn), NewWINKernel(fn)
		},
		"weightedWIN": func() (Kernel, Kernel) {
			fn := scorefn.WeightedWIN{Base: scorefn.LinearWIN{Scale: 0.3}, Weights: weights}
			return NewWINKernel(fn), NewWINKernel(fn)
		},
		"ExpMED": func() (Kernel, Kernel) { fn := scorefn.ExpMED{Alpha: 0.1}; return NewMEDKernel(fn), NewMEDKernel(fn) },
		"LinearMED": func() (Kernel, Kernel) {
			fn := scorefn.LinearMED{Scale: 0.3}
			return NewMEDKernel(fn), NewMEDKernel(fn)
		},
	}
	for name, build := range kernels {
		rng := rand.New(rand.NewSource(1602))
		armed, bare := build()
		floored := armed.(Floored)
		cuts, tight := 0, 0
		for trial := 0; trial < 3000; trial++ {
			lists := crowded(rng, trial)
			if trial%10 == 9 {
				// The tight instance: one token carries every list's maximum.
				for j := range lists {
					lists[j] = append(lists[j], match.Match{Loc: 100, Score: 1})
				}
			}
			bare.Reset(nil, lists)
			wantSet, want, wantOK := bare.Join()
			if !wantOK {
				t.Fatalf("%s trial %d: floorless join found nothing", name, trial)
			}
			floors := []float64{
				math.Inf(-1), math.NaN(), math.Inf(1), want, math.Nextafter(want, math.Inf(-1)),
				math.Nextafter(want, math.Inf(1)), want + math.Abs(want)*rng.Float64(), rng.Float64(),
			}
			for _, floor := range floors {
				floored.SetFloor(floor)
				armed.Reset(nil, lists)
				set, score, ok := armed.Join()
				if floored.FloorCut() != floored.WindowCut() || floored.FloorCut() == ok {
					t.Fatalf("%s trial %d floor %v: ok %v, FloorCut %v, WindowCut %v", name, trial, floor, ok, floored.FloorCut(), floored.WindowCut())
				}
				if !ok {
					if want >= floor || math.IsInf(floor, 0) {
						t.Fatalf("%s trial %d: cut at floor %v (%#x), the answer is %v (%#x)\n%v",
							name, trial, floor, math.Float64bits(floor), want, math.Float64bits(want), lists)
					}
					cuts++
					continue
				}
				if math.Float64bits(score) != math.Float64bits(want) || !sameSet(set, wantSet) {
					t.Fatalf("%s trial %d floor %v: %v scoring %v, floorless %v scoring %v", name, trial, floor, set, score, wantSet, want)
				}
			}
			if trial%10 == 9 && trial%3 != 0 {
				floored.SetFloor(math.Nextafter(want, math.Inf(1)))
				armed.Reset(nil, lists)
				if _, _, ok := armed.Join(); !ok {
					tight++
				}
			}
		}
		// Scores of 1 have g = 0 under the exponential families: no
		// magnitude, no margin, and the bound is the score itself.
		if name == "ExpWIN" || name == "genericWIN" || name == "ExpMED" {
			if tight < 150 {
				t.Fatalf("%s: only %d of 200 tight instances cut one ulp above their score", name, tight)
			}
		}
		if cuts < 1000 {
			t.Fatalf("%s: only %d cuts — the screen is not exercised", name, cuts)
		}
	}
}
