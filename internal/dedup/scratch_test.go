package dedup

import (
	"math"
	"testing"

	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// innerKernels builds one fresh inner kernel per family.
func innerKernels() map[string]join.Kernel {
	return map[string]join.Kernel{
		"win": join.NewWINKernel(scorefn.ExpWIN{Alpha: 0.1}),
		"med": join.NewMEDKernel(scorefn.ExpMED{Alpha: 0.1}),
		"max": join.NewMAXKernel(scorefn.SumMAX{Alpha: 0.1}),
	}
}

// dupTokenLists is a six-term instance whose duplicate-unaware optimum
// reuses `dups` tokens: terms 2g and 2g+1 both match one strong token
// at 100+2g for g < dups, every other term a strong token of its own,
// and every term has a weak private fallback further out.
func dupTokenLists(dups int) match.Lists {
	lists := make(match.Lists, 6)
	for j := range lists {
		strong := 100 + j
		if j/2 < dups {
			strong = 100 + 2*(j/2)
		}
		lists[j] = match.List{{Loc: strong, Score: 0.9}, {Loc: 120 + 3*j, Score: 0.4}}
	}
	return lists
}

// TestValidKernelZeroAlloc is the allocation gate for the kernel that
// is actually served: a warmed dedup.Kernel allocates nothing per
// document, whether the search stops at the first invocation or has to
// split on one or three duplicated tokens.
func TestValidKernelZeroAlloc(t *testing.T) {
	for name, inner := range innerKernels() {
		k := Wrap(inner)
		for _, dups := range []int{0, 1, 3} {
			lists := dupTokenLists(dups)
			k.Reset(nil, lists)
			set, _, ok := k.Join() // warm-up: scratch grows to this instance
			if !ok || !set.Valid() {
				t.Fatalf("%s dups=%d: no valid matchset (%v)", name, dups, set)
			}
			if split := k.Invocations() > 1; split != (dups > 0) {
				t.Fatalf("%s dups=%d: %d invocations, so the instance does not exercise what it is named for", name, dups, k.Invocations())
			}
			allocs := testing.AllocsPerRun(50, func() {
				k.Reset(nil, lists)
				k.Join()
			})
			if allocs != 0 {
				t.Errorf("%s dups=%d (%d invocations): %v allocs per join, want 0", name, dups, k.Invocations(), allocs)
			}
		}
	}
}

// flooredKernel is a kernel that takes a floor.
type flooredKernel interface {
	join.Kernel
	join.Floored
}

// TestArmedKernelZeroAlloc is the same gate with the floor armed, for
// the two kernels that screen: a warmed WIN or MED kernel, bare and
// wrapped, allocates nothing per document whether the window screen
// cuts it before the merge or lets it through to the program (and, for
// the wrapper, to the search) — nor does its cut width, remembered or
// searched for afresh at a bar it has not seen.
func TestArmedKernelZeroAlloc(t *testing.T) {
	for _, name := range []string{"win", "med"} {
		for _, dups := range []int{0, 1, 3} {
			lists := dupTokenLists(dups)
			sigs := make([]join.Sig, len(lists))
			for j, l := range lists {
				sigs[j] = join.Signature(l)
			}
			for _, wrapped := range []bool{false, true} {
				k := innerKernels()[name].(flooredKernel)
				if wrapped {
					k = Wrap(k)
				}
				k.Reset(nil, lists)
				_, score, ok := k.Join()
				if !ok {
					t.Fatalf("%s dups=%d wrapped=%v: no matchset", name, dups, wrapped)
				}
				for _, floor := range []float64{score, math.MaxFloat64} {
					k.SetFloor(floor)
					k.Reset(nil, lists)
					k.Join() // warm-up under this floor
					if cut := floor != score; k.WindowCut() != cut {
						t.Fatalf("%s dups=%d wrapped=%v floor %v: WindowCut %v, want %v", name, dups, wrapped, floor, k.WindowCut(), cut)
					}
					allocs := testing.AllocsPerRun(50, func() {
						k.Reset(nil, lists)
						k.Join()
					})
					if allocs != 0 {
						t.Errorf("%s dups=%d wrapped=%v floor %v: %v allocs per join, want 0", name, dups, wrapped, floor, allocs)
					}
				}
				if _, ok := k.CutWidth(sigs, math.MaxFloat64); !ok {
					t.Fatalf("%s dups=%d wrapped=%v: no cut width at the largest bar", name, dups, wrapped)
				}
				bar := score
				allocs := testing.AllocsPerRun(50, func() {
					k.CutWidth(sigs, math.MaxFloat64)
					bar = math.Nextafter(bar, 0) // a new bar: a memo miss
					k.CutWidth(sigs, bar)
				})
				if allocs != 0 {
					t.Errorf("%s dups=%d wrapped=%v: %v allocs per cut width, want 0", name, dups, wrapped, allocs)
				}
			}
		}
	}
}

// TestMemoCollisionsNeverSkip forces every removal set onto one hash:
// the exact comparison must still tell distinct instances apart, so
// the search explores exactly what it explores under the real hash.
func TestMemoCollisionsNeverSkip(t *testing.T) {
	d := NewDeduper()
	d.hash = func([]removal) uint64 { return 42 }
	d.Best(func(match.Lists) (match.Set, float64, bool) { return nil, 0, false }, nil) // arm the memo
	for i, step := range []struct {
		path []removal
		seen bool
	}{
		{[]removal{{0, 5}}, false},
		{[]removal{{1, 5}}, false}, // same hash, different set: explored
		{[]removal{{0, 5}, {1, 7}}, false},
		{[]removal{{1, 7}, {0, 5}}, true}, // same set by another path
		{[]removal{{1, 5}}, true},
		{[]removal{{0, 5}, {1, 7}, {2, 7}}, false}, // a proper superset
	} {
		d.removed = step.path
		if got := d.visited(); got != step.seen {
			t.Fatalf("step %d: visited(%v) = %v, want %v", i, step.path, got, step.seen)
		}
	}

	collide := NewDeduper()
	collide.hash = d.hash
	for fam, instances := range searchFamilies() {
		for _, k := range searchKernels() {
			for i, lists := range instances {
				want := Best(k.alg, lists)
				got := collide.Best(k.alg, lists)
				if !sameResult(got, want) {
					t.Fatalf("%s/%s #%d: colliding memo %+v, real hash %+v", fam, k.name, i, got, want)
				}
			}
		}
	}
}

// TestKernelReuseNoStaleScratch interleaves wide duplicate-heavy
// instances with narrow ones on one long-lived kernel: every answer
// must equal a fresh one-shot search's, so nothing a previous document
// left in the scratch stacks or the memo can leak into the next.
func TestKernelReuseNoStaleScratch(t *testing.T) {
	fams := searchFamilies()
	var stream []match.Lists
	for i := 0; i < 60; i++ {
		stream = append(stream, fams["synth"][i], fams["novalid"][i%len(fams["novalid"])],
			fams["alldup"][i], fams["randinst"][i])
	}
	oneShot := searchKernels()
	for ki, name := range []string{"win", "med", "max"} {
		k := Wrap(innerKernels()[name])
		for i, lists := range stream {
			want := Best(oneShot[ki].alg, lists)
			k.Reset(nil, lists)
			set, score, ok := k.Join()
			got := Result{Set: set, Score: score, OK: ok, Invocations: k.Invocations()}
			if !sameResult(got, want) {
				t.Fatalf("%s #%d (%d terms): reused kernel %+v, one-shot %+v", name, i, len(lists), got, want)
			}
		}
	}
}

// sameResult is bitwise equality of two search outcomes.
func sameResult(a, b Result) bool {
	if a.OK != b.OK || a.Invocations != b.Invocations || len(a.Set) != len(b.Set) ||
		math.Float64bits(a.Score) != math.Float64bits(b.Score) {
		return false
	}
	for j := range a.Set {
		if a.Set[j] != b.Set[j] {
			return false
		}
	}
	return true
}
