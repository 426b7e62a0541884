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
// for event; the screen finds the smallest window over the instance's
// whole cross product and sums g_j over the lists' maximum scores, so
// what the kernels compare with the floor is scorefn's bound over
// per-list maxima, to the bit.
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
		wmin, gsum, mag, ok := s.screen(lists, &memo)
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
	// A list out of location order breaks the sweep's premise: the
	// stream still follows Merger, but the screen must stand down. An
	// incomplete instance loads nothing and screens nothing.
	lists := match.Lists{{{Loc: 9, Score: 0.5}, {Loc: 2, Score: 0.5}}, {{Loc: 5, Score: 0.5}}}
	if !s.load(lists) || len(s.events) != 3 {
		t.Fatalf("unsorted list: %d events", len(s.events))
	}
	if _, _, _, ok := s.screen(lists, &memo); ok {
		t.Fatal("unsorted list: the screen did not stand down")
	}
	for _, incomplete := range []match.Lists{{lists[0], nil}, nil} {
		if s.load(incomplete) {
			t.Fatal("an incomplete instance loaded")
		}
		if _, _, _, ok := s.screen(incomplete, &memo); ok {
			t.Fatal("an incomplete instance screened")
		}
	}
}

// mergedWindow is the screen as a pass over the merged events — each
// term's latest location kept, the window ending at every event once
// every term has been seen — the form it took before it read the lists
// unmerged, kept as the screen's reference.
func mergedWindow(lists match.Lists, memo *gMemo) (wmin int, gsum, mag float64, ok bool) {
	for _, l := range lists {
		if len(l) == 0 {
			return 0, 0, 0, false
		}
	}
	if len(lists) == 0 {
		return 0, 0, 0, false
	}
	smax, last := make([]float64, len(lists)), make([]int, len(lists))
	for j := range smax {
		smax[j] = math.Inf(-1)
	}
	wmin = math.MaxInt
	seen, prev := 0, math.MinInt
	for _, ev := range match.Merged(lists) {
		loc := ev.M.Loc
		if loc < prev {
			return 0, 0, 0, false
		}
		prev = loc
		if ev.M.Score > smax[ev.Term] {
			smax[ev.Term] = ev.M.Score
		}
		last[ev.Term] = loc
		if ev.Pos == 0 {
			seen++
		}
		if seen == len(lists) {
			wmin = min(wmin, loc-slices.Min(last))
		}
	}
	for j := range smax {
		g := memo.g(j, smax[j])
		gsum += g
		mag += math.Abs(g)
	}
	return wmin, gsum, mag, true
}

// hostileLists draws an instance of 1 to 7 terms on few locations —
// duplicate locations throughout — and then, by trial, swaps in scores
// no contract-abiding caller sends (NaN, ±Inf, ±0, negative), empties a
// list, or puts two matches of a list out of location order.
func hostileLists(rng *rand.Rand, trial int) match.Lists {
	q := 1 + trial%7
	lists := randinst.Lists(rng, randinst.Config{Terms: q, MaxPerList: 2 + rng.Intn(max(1, 7-q)), MaxLoc: 2 + rng.Intn(30), AllowTies: true})
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -0.5, 1}
	if trial%3 == 0 {
		for _, l := range lists {
			for i := range l {
				if rng.Intn(3) == 0 {
					l[i].Score = hostile[rng.Intn(len(hostile))]
				}
			}
		}
	}
	switch l := lists[rng.Intn(q)]; trial % 11 {
	case 5:
		lists[rng.Intn(q)] = nil
	case 7:
		if len(l) > 1 && l[0].Loc != l[len(l)-1].Loc {
			l[0], l[len(l)-1] = l[len(l)-1], l[0]
		}
	}
	return lists
}

// TestScreenProperties: on every instance — 1 to 7 terms, duplicate
// locations, NaN and infinite scores, signed zeros, empty and unsorted
// lists — the screen returns, to the bit, what the merged pass returns;
// its wmin is the smallest window over every matchset; an unsorted list
// makes it stand down, so an armed kernel runs its program to the
// floorless answer whatever the floor; and an incomplete instance comes
// back ok == false with no cut reported.
func TestScreenProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3001))
	fns := []scorefn.WIN{scorefn.ExpWIN{Alpha: 0.1}, scorefn.LinearWIN{Scale: 0.3}}
	var s eventStream
	var memo, ref gMemo
	unsorted, incomplete := 0, 0
	for trial := 0; trial < 20000; trial++ {
		var lists match.Lists
		if trial%2 == 0 {
			lists = hostileLists(rng, trial)
		} else {
			lists = crowded(rng, trial)
		}
		fn := fns[trial%len(fns)]
		memo.bind(fn)
		ref.bind(fn)
		memo.grow(len(lists))
		ref.grow(len(lists))
		wmin, gsum, mag, ok := s.screen(lists, &memo)
		rw, rg, rm, rok := mergedWindow(lists, &ref)
		if ok != rok || wmin != rw || math.Float64bits(gsum) != math.Float64bits(rg) || math.Float64bits(mag) != math.Float64bits(rm) {
			t.Fatalf("trial %d: screen (%d, %v, %v, %v), merged pass (%d, %v, %v, %v)\n%v", trial, wmin, gsum, mag, ok, rw, rg, rm, rok, lists)
		}
		sorted := true
		for _, l := range lists {
			sorted = sorted && slices.IsSortedFunc(l, func(a, b match.Match) int { return a.Loc - b.Loc })
		}
		complete := lists.Complete()
		switch {
		case !complete:
			incomplete++
		case !sorted:
			unsorted++
		default:
			smallest := math.MaxInt
			naive.ForEach(lists, func(set match.Set) { smallest = min(smallest, set.Window()) })
			if !ok || wmin != smallest {
				t.Fatalf("trial %d: wmin %d (ok %v), smallest window of the cross product %d\n%v", trial, wmin, ok, smallest, lists)
			}
		}
		if complete && sorted {
			continue
		}
		if ok {
			t.Fatalf("trial %d: the screen did not stand down (complete %v, sorted %v)\n%v", trial, complete, sorted, lists)
		}
		bare, armed := NewWINKernel(fn), NewWINKernel(fn)
		armed.SetFloor(math.MaxFloat64)
		bare.Reset(nil, lists)
		armed.Reset(nil, lists)
		wantSet, want, wantOK := bare.Join()
		set, score, gotOK := armed.Join()
		if armed.FloorCut() || gotOK != wantOK || gotOK && (math.Float64bits(score) != math.Float64bits(want) || !sameSet(set, wantSet)) {
			t.Fatalf("trial %d: armed %v %v %v (cut %v), floorless %v %v %v\n%v", trial, set, score, gotOK, armed.FloorCut(), wantSet, want, wantOK, lists)
		}
	}
	if unsorted < 200 || incomplete < 200 {
		t.Fatalf("%d unsorted and %d incomplete instances: the hostile shapes are not exercised", unsorted, incomplete)
	}
}

// TestScreenCutSkipsMerge: an armed Join the screen cuts never merges —
// the event slice is left exactly as the previous survivor's merge left
// it — while each survivor, a tight cluster at a new offset scoring
// the floor itself, is merged afresh.
func TestScreenCutSkipsMerge(t *testing.T) {
	near := func(at int) match.Lists {
		return match.Lists{{{Loc: at, Score: 0.9}}, {{Loc: at + 1, Score: 0.8}}, {{Loc: at + 2, Score: 0.7}}}
	}
	far := match.Lists{{{Loc: 1, Score: 0.9}, {Loc: 90, Score: 0.1}}, {{Loc: 50, Score: 0.8}}, {{Loc: 99, Score: 0.7}}}
	type armedKernel interface {
		Kernel
		Floored
		stream() *eventStream
	}
	for name, k := range map[string]armedKernel{
		"win": winStream{NewWINKernel(scorefn.ExpWIN{Alpha: 0.1})},
		"med": medStream{NewMEDKernel(scorefn.ExpMED{Alpha: 0.1})},
	} {
		k.Reset(nil, near(0))
		_, floor, ok := k.Join()
		if !ok {
			t.Fatalf("%s: the near instance has no matchset", name)
		}
		k.SetFloor(floor)
		for round := 1; round <= 3; round++ {
			events := slices.Clone(k.stream().events)
			k.Reset(nil, far)
			if _, _, ok := k.Join(); ok || !k.WindowCut() {
				t.Fatalf("%s round %d: the far instance was not cut at the screen", name, round)
			}
			if got := k.stream().events; !slices.Equal(got, events) {
				t.Fatalf("%s round %d: a cut join merged its lists: events %v, before %v", name, round, got, events)
			}
			survivor := near(10 * round)
			k.Reset(nil, survivor)
			if _, score, ok := k.Join(); !ok || score != floor || k.FloorCut() {
				t.Fatalf("%s round %d: the survivor scored %v (ok %v, cut %v), want %v", name, round, score, ok, k.FloorCut(), floor)
			}
			if got := k.stream().events; !slices.Equal(got, match.Merged(survivor)) {
				t.Fatalf("%s round %d: the survivor was not merged: %v", name, round, got)
			}
		}
	}
}

type winStream struct{ *WINKernel }

func (k winStream) stream() *eventStream { return &k.eventStream }

type medStream struct{ *MEDKernel }

func (k medStream) stream() *eventStream { return &k.eventStream }

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
