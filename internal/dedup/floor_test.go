package dedup

import (
	"math"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/synth"
)

// The kernel floor (Kernel.SetFloor) rests on one bound — removing
// matches never raises an instance's duplicate-unaware optimum — and
// must never cut on equality. Both are pinned here on float bits: the
// bound over whole search trees, for the three served inner kernels,
// across score magnitudes; the cut at the floors that matter (none,
// just above the root optimum, exactly the root optimum, exactly the
// valid one, just above that).

// rescaled returns lists with every score mapped through f.
func rescaled(lists match.Lists, f func(term int, s float64) float64) match.Lists {
	out := make(match.Lists, len(lists))
	for j, l := range lists {
		out[j] = make(match.List, len(l))
		for i, m := range l {
			out[j][i] = match.Match{Loc: m.Loc, Score: f(j, m.Score)}
		}
	}
	return out
}

// magnitudes are the score regimes of the bound test, each with the
// number of ulps a sub-instance's optimum may exceed its parent's by.
// That is 0 — the bound holds on float bits — wherever scores differ
// by more than rounding: as generated, scaled to 1e-300, spread over
// forty decades, and mixed per term. "ones" is the regime where it
// cannot be 0: every score within 1e-15 of 1, so g = ln(score) is a
// few ulps of 1 and every comparison a WIN or MED kernel makes between
// partial matchsets is decided by rounding. There the kernels' own
// optimum is only exact to a few ulps (they differ from internal/naive
// by as much, with or without this wrapper), and so is the bound.
var magnitudes = map[string]struct {
	f    func(term int, s float64) float64
	ulps uint64
}{
	"unit":   {func(_ int, s float64) float64 { return s }, 0},
	"tiny":   {func(_ int, s float64) float64 { return s * 1e-300 }, 0},
	"spread": {func(_ int, s float64) float64 { return math.Pow(s, 40) }, 0},
	"mixed":  {func(j int, s float64) float64 { return []float64{s * 1e-300, 1 - s*1e-15, s}[j%3] }, 0},
	"ones":   {func(_ int, s float64) float64 { return 1 - s*1e-15 }, 8},
}

func TestSubInstanceOptimumNeverRises(t *testing.T) {
	fams := searchFamilies()
	fams["synth60"] = synth.Generate(synth.Config{
		Docs: 40, DocWords: 40, Terms: 4, Matches: 24, Lambda: 0.85, ZipfS: 1.1, Seed: 7005,
	}).Docs
	for name, inner := range innerKernels() {
		alg := Wrap(inner).alg
		checked := 0
		// walk checks every instance Split derives from lists against
		// lists' own optimum, then descends, to a budget per root.
		var walk func(label string, lists match.Lists, ulps uint64, budget *int)
		walk = func(label string, lists match.Lists, ulps uint64, budget *int) {
			set, parent, ok := alg(lists)
			if !ok || set.Valid() {
				return
			}
			for _, sub := range Split(lists, set.Clone()) {
				if *budget--; *budget < 0 {
					return
				}
				if _, child, ok := alg(sub); ok {
					checked++
					// Scores here are positive, so their bits order as they do.
					if !(child <= parent) && math.Float64bits(child)-math.Float64bits(parent) > ulps {
						t.Fatalf("%s %s: sub-instance optimum %v (%#x) above its parent's %v (%#x)\nparent %v\nsub %v",
							name, label, child, math.Float64bits(child), parent, math.Float64bits(parent), lists, sub)
					}
				}
				walk(label, sub, ulps, budget)
			}
		}
		for fam, instances := range fams {
			for mag, m := range magnitudes {
				for _, lists := range instances {
					budget := 200
					walk(fam+"/"+mag, rescaled(lists, m.f), m.ulps, &budget)
				}
			}
		}
		if checked < 1000 {
			t.Fatalf("%s: only %d sub-instances checked", name, checked)
		}
	}
}

func TestKernelFloor(t *testing.T) {
	oneShot := searchKernels()
	for ki, name := range []string{"win", "med", "max"} {
		k := Wrap(innerKernels()[name])
		// The WIN and MED kernels take the floor themselves: a root cut
		// may be their window screen's, before any score exists. That
		// is still a floor cut of one run.
		windowCuts := 0
		join := func(lists match.Lists, floor float64) Result {
			k.SetFloor(floor)
			k.Reset(nil, lists)
			set, score, ok := k.Join()
			if k.WindowCut() {
				if windowCuts++; ok || !k.FloorCut() || k.Invocations() != 1 {
					t.Fatalf("%s floor %v: window cut with ok %v, FloorCut %v, %d invocations", name, floor, ok, k.FloorCut(), k.Invocations())
				}
			}
			return Result{Set: set.Clone(), Score: score, OK: ok, Invocations: k.Invocations(), Capped: k.Capped()}
		}
		cuts, splits := 0, 0
		for fam, instances := range searchFamilies() {
			for i, lists := range instances {
				want := Best(oneShot[ki].alg, lists)
				want.Set = want.Set.Clone()
				_, root, rootOK := oneShot[ki].alg(lists)
				for _, floor := range []float64{math.Inf(-1), math.NaN()} {
					if got := join(lists, floor); !sameResult(got, want) || k.FloorCut() {
						t.Fatalf("%s %s #%d floor %v: %+v (cut %v), floorless %+v", name, fam, i, floor, got, k.FloorCut(), want)
					}
				}
				if !rootOK {
					continue
				}
				// Equality never cuts: at the root optimum the search goes
				// on, and finds the valid optimum if that ties with it.
				// (A floored search may take fewer runs than the floorless
				// one, never more; the answer is compared without them.)
				sameAnswer := func(got Result) bool {
					fewer := got.Invocations <= want.Invocations
					got.Invocations = want.Invocations
					return fewer && sameResult(got, want)
				}
				got := join(lists, root)
				if tied := want.OK && want.Score == root; k.FloorCut() || got.OK != tied || tied && !sameAnswer(got) {
					t.Fatalf("%s %s #%d floor at the root optimum %v: %+v (cut %v), floorless %+v", name, fam, i, root, got, k.FloorCut(), want)
				}
				if got := join(lists, math.Nextafter(root, math.Inf(1))); got.OK || got.Invocations != 1 || !k.FloorCut() {
					t.Fatalf("%s %s #%d floor just above the root optimum %v: %+v (cut %v)", name, fam, i, root, got, k.FloorCut())
				}
				cuts++
				// Out of any matchset's reach, the screen sees it first.
				if got := join(lists, math.MaxFloat64); got.OK || got.Invocations != 1 || !k.FloorCut() || k.WindowCut() != (name != "max") {
					t.Fatalf("%s %s #%d floor out of reach: %+v (cut %v, by the window screen %v)", name, fam, i, got, k.FloorCut(), k.WindowCut())
				}
				if !want.OK {
					continue
				}
				// At the valid optimum the answer stands; one ulp higher and
				// nothing reaches the floor — which is a root cut only when
				// the two optima coincide.
				if got = join(lists, want.Score); !sameAnswer(got) || k.FloorCut() {
					t.Fatalf("%s %s #%d floor at the valid optimum: %+v (cut %v), floorless %+v", name, fam, i, got, k.FloorCut(), want)
				}
				above := join(lists, math.Nextafter(want.Score, math.Inf(1)))
				if above.OK || k.FloorCut() != (want.Score == root) {
					t.Fatalf("%s %s #%d floor just above the valid optimum %v (root %v): %+v (cut %v)", name, fam, i, want.Score, root, above, k.FloorCut())
				}
				if want.Invocations > 1 {
					splits++
				}
			}
		}
		if cuts == 0 || splits == 0 || (windowCuts > 0) != (name != "max") {
			t.Fatalf("%s: %d cuts (%d by the window screen), %d split searches — the families do not exercise the floor", name, cuts, windowCuts, splits)
		}
		// The floor is sticky until the next SetFloor, and -Inf disarms it.
		if got, want := join(dupTokenLists(1), math.Inf(-1)), Best(oneShot[ki].alg, dupTokenLists(1)); !sameResult(got, want) {
			t.Fatalf("%s: disarmed kernel %+v, Best %+v", name, got, want)
		}
	}
}

// TestCappedSearchIsFlagged lowers the rerun cap under a 60 %
// duplicate-frequency synth workload: every search that stops at the
// cap says so, and no search that ran to completion does.
func TestCappedSearchIsFlagged(t *testing.T) {
	docs := synth.Generate(synth.Config{
		Docs: 60, DocWords: 40, Terms: 4, Matches: 24, Lambda: 0.85, ZipfS: 1.1, Seed: 7006,
	}).Docs
	alg := searchKernels()[0].alg
	full := make([]Result, len(docs))
	for i, lists := range docs {
		full[i] = Best(alg, lists)
		full[i].Set = full[i].Set.Clone()
		if full[i].Capped {
			t.Fatalf("#%d: capped at the real cap after %d invocations", i, full[i].Invocations)
		}
	}
	defer func(old int) { maxInvocations = old }(maxInvocations)
	maxInvocations = 3
	capped := 0
	for i, lists := range docs {
		got := Best(alg, lists)
		if got.Capped != (got.Invocations == 3 && full[i].Invocations > 3) {
			t.Fatalf("#%d: Capped=%v after %d invocations, the full search needs %d", i, got.Capped, got.Invocations, full[i].Invocations)
		}
		if !got.Capped && !sameResult(got, full[i]) {
			t.Fatalf("#%d: uncapped search under a lowered cap %+v, want %+v", i, got, full[i])
		}
		if got.Capped {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("no search reached the lowered cap")
	}
}
