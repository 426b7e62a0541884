package join

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// distinctKernel is a kernel with both list-max rungs.
type distinctKernel interface {
	Kernel
	UpperBounded
	DistinctUpperBound(perListMax []float64, minMatch int) float64
}

// distinctInstance draws a kernel and its g, an instance of 1 to 4
// lists of 1 to 3 matches each, and a minMatch in [0, 5] from data. Scores are 1,
// the two floats just below it, 0.7, 0.4 and 0 (whose ExpWIN and ExpMED
// g is −Inf); locations fall in [0, 10), so matches of different lists
// share locations and sit next to each other.
func distinctInstance(data []byte) (k distinctKernel, g gFunc, lists match.Lists, minMatch int) {
	src := byteSource(data)
	switch src.next() % 4 {
	case 0:
		fn := scorefn.ExpWIN{Alpha: 0.1}
		k, g = NewWINKernel(fn), fn
	case 1:
		fn := scorefn.LinearWIN{Scale: 0.3}
		k, g = NewWINKernel(fn), fn
	case 2:
		fn := scorefn.ExpMED{Alpha: 0.1}
		k, g = NewMEDKernel(fn), fn
	default:
		fn := scorefn.LinearMED{Scale: 0.3}
		k, g = NewMEDKernel(fn), fn
	}
	scores := []float64{1, 1 - 0x1p-53, 1 - 0x1p-52, 0.7, 0.4, 0}
	lists = make(match.Lists, 1+src.next()%4)
	for j := range lists {
		for n := 1 + src.next()%3; n > 0; n-- {
			lists[j] = append(lists[j], match.Match{Loc: src.next() % 10, Score: scores[src.next()%len(scores)]})
		}
		lists[j].Sort()
	}
	return k, g, lists, src.next() % 6
}

// checkDistinctCap holds a kernel's distinct-location cap to the scores
// the kernel itself computes, on the instance data draws:
//   - no valid matchset (pairwise-distinct locations) of every list, or,
//     for 1 ≤ minMatch < the lists, of any subset of at least minMatch of
//     them compacted in order, scores above it — each matchset scored by
//     a Join over its own matches, one per list, so in the kernel's own
//     arithmetic;
//   - it is never above the unrestricted cap;
//   - the matchset of weight-1 matches at adjacent locations scores it,
//     to the bit when every g_j(1) is 0 (ExpWIN, ExpMED) and within the
//     rounding margin otherwise.
func checkDistinctCap(t *testing.T, data []byte) {
	k, g, lists, minMatch := distinctInstance(data)
	maxima := make([]float64, len(lists))
	for j, l := range lists {
		maxima[j] = Signature(l).Max
	}
	bound := k.DistinctUpperBound(slices.Clone(maxima), minMatch)
	if unrestricted := k.ScoreUpperBound(slices.Clone(maxima), minMatch); bound > unrestricted {
		t.Fatalf("distinct cap %v above the unrestricted cap %v (m=%d)\n%v", bound, unrestricted, minMatch, lists)
	}
	least := len(lists)
	if minMatch >= 1 && minMatch < len(lists) {
		least = minMatch
	}
	one := make(match.Lists, len(lists))
	for mask := 1; mask < 1<<len(lists); mask++ {
		var sub match.Lists
		for j := range lists {
			if mask&(1<<j) != 0 {
				sub = append(sub, lists[j])
			}
		}
		if len(sub) < least {
			continue
		}
		forEachDistinctSet(sub, func(set match.Set) {
			for j := range set {
				one[j] = match.List{set[j]}
			}
			k.Reset(nil, one[:len(set)])
			if _, score, ok := k.Join(); ok && score > bound {
				t.Fatalf("valid matchset %v scores %v, above the distinct cap %v (m=%d)\n%v", set, score, bound, minMatch, lists)
			}
		})
	}
	for j := range one[:len(lists)] {
		one[j] = match.List{{Loc: 7 + j, Score: 1}}
		maxima[j] = 1
	}
	k.Reset(nil, one[:len(lists)])
	_, score, _ := k.Join()
	bound = k.DistinctUpperBound(maxima, 0)
	if exact := g.G(0, 1) == 0; exact && bound != score || !(bound >= score && bound-score <= 1e-9*math.Max(math.Abs(score), 1)) {
		t.Fatalf("%d adjacent weight-1 matches score %v, the distinct cap is %v (g(1) = %v)", len(lists), score, bound, g.G(0, 1))
	}
}

// forEachDistinctSet calls fn on every matchset of the lists' cross
// product whose locations are pairwise distinct.
func forEachDistinctSet(lists match.Lists, fn func(match.Set)) {
	set := make(match.Set, len(lists))
	var walk func(j int)
	walk = func(j int) {
		if j == len(lists) {
			fn(set)
			return
		}
		for _, m := range lists[j] {
			if !slices.ContainsFunc(set[:j], func(o match.Match) bool { return o.Loc == m.Loc }) {
				set[j] = m
				walk(j + 1)
			}
		}
	}
	walk(0)
}

// FuzzDistinctCap runs checkDistinctCap on fuzzed instances.
func FuzzDistinctCap(f *testing.F) {
	// The tie instance: two weight-1 lists at adjacent locations, under
	// ExpMED and ExpWIN, at minMatch 0 and 1.
	f.Add([]byte{2, 1, 0, 3, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 1, 0, 3, 0, 0, 4, 0, 1})
	// Three adjacent lists whose maxima are the floats just below 1,
	// under ExpMED at minMatch 2 and, with two of them sharing a
	// location, under ExpWIN.
	f.Add([]byte{2, 2, 0, 3, 1, 0, 4, 2, 0, 5, 1, 2})
	f.Add([]byte{0, 2, 1, 5, 2, 6, 3, 0, 6, 1, 0, 7, 1, 0})
	// Four lists crowded onto a few locations, linear families.
	f.Add([]byte{1, 3, 2, 0, 0, 1, 1, 2, 3, 1, 1, 2, 4, 0, 2, 0, 2, 3, 1, 4, 5, 2})
	f.Add([]byte{3, 3, 1, 5, 0, 6, 3, 1, 7, 1, 0, 8, 4, 2, 9, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) { checkDistinctCap(t, data) })
}

// TestDistinctCap is checkDistinctCap over seeded random inputs, so that
// every run of the suite covers what the fuzzer explores, not just its
// seeds.
func TestDistinctCap(t *testing.T) {
	rng := rand.New(rand.NewSource(4301))
	for trial := 0; trial < 5000; trial++ {
		data := make([]byte, 8+rng.Intn(40))
		rng.Read(data)
		checkDistinctCap(t, data)
	}
}
