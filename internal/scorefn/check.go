package scorefn

import (
	"fmt"
	"math"
	"math/rand"

	"bestjoin/internal/match"
)

// CheckWIN probes a WIN scoring function against the Definition 3
// contract on n randomized inputs drawn from rng: monotonicity of
// every g_j and of f in both arguments, plus the optimal substructure
// property. It returns the first violation found, or nil.
//
// Scores are drawn from (0,1] and windows from [0,200), matching the
// regime the paper's experiments operate in.
func CheckWIN(fn WIN, terms int, n int, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		j := rng.Intn(terms)
		x, y := randScore(rng), randScore(rng)
		if x > y && fn.G(j, x) < fn.G(j, y) {
			return fmt.Errorf("scorefn: g_%d not increasing: g(%v)=%v < g(%v)=%v", j, x, fn.G(j, x), y, fn.G(j, y))
		}
		a, b := rng.Float64()*20-10, rng.Float64()*20-10
		w, v := rng.Float64()*200, rng.Float64()*200
		if a >= b && fn.F(a, w) < fn.F(b, w) {
			return fmt.Errorf("scorefn: f not increasing in x: f(%v,%v) < f(%v,%v)", a, w, b, w)
		}
		if w >= v && fn.F(a, w) > fn.F(a, v) {
			return fmt.Errorf("scorefn: f not decreasing in y: f(%v,%v) > f(%v,%v)", a, w, a, v)
		}
		// Optimal substructure: f(x,y) ≥ f(x',y') must be preserved by
		// adding δ≥0 to both first arguments, and by adding δ≥0 to
		// both second arguments.
		delta := rng.Float64() * 50
		if fn.F(a, w) >= fn.F(b, v) {
			if fn.F(a+delta, w) < fn.F(b+delta, v) {
				return fmt.Errorf("scorefn: optimal substructure (x+δ) violated at x=%v y=%v x'=%v y'=%v δ=%v", a, w, b, v, delta)
			}
			if fn.F(a, w+delta) < fn.F(b, v+delta) {
				return fmt.Errorf("scorefn: optimal substructure (y+δ) violated at x=%v y=%v x'=%v y'=%v δ=%v", a, w, b, v, delta)
			}
		}
		// A function claiming WINSeparable must have F equal — to the
		// bit, since the kernel's keyed path depends on it — to Lift of
		// the key expression, with a non-negative slope.
		if sep, ok := fn.(WINSeparable); ok {
			slope := sep.KeySlope()
			if slope < 0 {
				return fmt.Errorf("scorefn: negative KeySlope %v", slope)
			}
			if got, want := sep.Lift(a-slope*w), fn.F(a, w); got != want {
				return fmt.Errorf("scorefn: separable form diverges from F at x=%v y=%v: Lift=%v F=%v", a, w, got, want)
			}
		}
	}
	return nil
}

// CheckMED probes a MED scoring function against the Definition 5
// contract (f and every g_j monotonically increasing) on n randomized
// inputs. It returns the first violation found, or nil.
func CheckMED(fn MED, terms int, n int, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		j := rng.Intn(terms)
		x, y := randScore(rng), randScore(rng)
		if x > y && fn.G(j, x) < fn.G(j, y) {
			return fmt.Errorf("scorefn: g_%d not increasing", j)
		}
		a, b := rng.Float64()*40-20, rng.Float64()*40-20
		if a >= b && fn.F(a) < fn.F(b) {
			return fmt.Errorf("scorefn: f not increasing: f(%v)=%v < f(%v)=%v", a, fn.F(a), b, fn.F(b))
		}
	}
	return nil
}

// CheckMAX probes a MAX scoring function against the Definition 7
// contract (f increasing; contribution increasing in score, decreasing
// in distance) on n randomized inputs. It returns the first violation
// found, or nil.
func CheckMAX(fn MAX, terms int, n int, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		j := rng.Intn(terms)
		x, y := randScore(rng), randScore(rng)
		d := rng.Float64() * 100
		if x > y && fn.Contribution(j, x, d) < fn.Contribution(j, y, d) {
			return fmt.Errorf("scorefn: contribution not increasing in score")
		}
		d2 := d + rng.Float64()*100
		if fn.Contribution(j, x, d) < fn.Contribution(j, x, d2) {
			return fmt.Errorf("scorefn: contribution not decreasing in distance")
		}
		a, b := rng.Float64()*40-20, rng.Float64()*40-20
		if a >= b && fn.F(a) < fn.F(b) {
			return fmt.Errorf("scorefn: f not increasing")
		}
	}
	return nil
}

// CheckAtMostOneCrossing numerically probes the Definition 8 crossing
// property: for random pairs of (score, loc) match curves for the same
// term, the sign of their contribution difference, swept over integer
// locations in [lo, hi], must change at most once. It returns the
// first violation found, or nil.
func CheckAtMostOneCrossing(fn MAX, terms int, n int, lo, hi int, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		j := rng.Intn(terms)
		s1, s2 := randScore(rng), randScore(rng)
		l1 := lo + rng.Intn(hi-lo)
		l2 := lo + rng.Intn(hi-lo)
		changes, prev := 0, 0
		for l := lo; l <= hi; l++ {
			d := fn.Contribution(j, s1, absDist(l1, l)) - fn.Contribution(j, s2, absDist(l2, l))
			s := sign(d)
			if s != 0 {
				if prev != 0 && s != prev {
					changes++
				}
				prev = s
			}
		}
		if changes > 1 {
			return fmt.Errorf("scorefn: contributions of (%v@%d) and (%v@%d) cross %d times", s1, l1, s2, l2, changes)
		}
	}
	return nil
}

// CheckUpperBoundWIN probes the score-upper-bound contract of a WIN
// scoring function on n randomized enumerable instances: for every
// matchset of a small random instance, ScoreWIN must not exceed
// UpperBoundWIN of the per-list maxima; and a matchset carrying every
// list's maximum score at one shared location must score exactly the
// bound (tightness at zero proximity penalty). It returns the first
// violation found, or nil.
func CheckUpperBoundWIN(fn WIN, terms int, n int, rng *rand.Rand) error {
	return checkUpperBound(terms, n, rng,
		func(maxima []float64) float64 { return UpperBoundWIN(fn, maxima) },
		func(s match.Set) float64 { return ScoreWIN(fn, s) },
		"WIN")
}

// CheckUpperBoundMED is CheckUpperBoundWIN for the MED family.
func CheckUpperBoundMED(fn MED, terms int, n int, rng *rand.Rand) error {
	return checkUpperBound(terms, n, rng,
		func(maxima []float64) float64 { return UpperBoundMED(fn, maxima) },
		func(s match.Set) float64 { return ScoreMED(fn, s) },
		"MED")
}

// CheckUpperBoundMAX is CheckUpperBoundWIN for the MAX family
// (maximized-at-match evaluation, the regime the join algorithms and
// the engine operate in).
func CheckUpperBoundMAX(fn MAX, terms int, n int, rng *rand.Rand) error {
	return checkUpperBound(terms, n, rng,
		func(maxima []float64) float64 { return UpperBoundMAX(fn, maxima) },
		func(s match.Set) float64 { v, _ := ScoreMAX(fn, s); return v },
		"MAX")
}

// checkUpperBound enumerates the cross product of small random match
// lists and verifies bound domination plus zero-penalty tightness.
func checkUpperBound(terms, n int, rng *rand.Rand,
	bound func([]float64) float64, score func(match.Set) float64, family string) error {
	for i := 0; i < n; i++ {
		// Random instance: 1–3 matches per list, locations in [0, 30).
		lists := make([]match.List, terms)
		maxima := make([]float64, terms)
		for j := range lists {
			m := 1 + rng.Intn(3)
			for k := 0; k < m; k++ {
				lists[j] = append(lists[j], match.Match{Loc: rng.Intn(30), Score: randScore(rng)})
			}
			lists[j].Sort()
			maxima[j] = lists[j][0].Score
			for _, mm := range lists[j] {
				if mm.Score > maxima[j] {
					maxima[j] = mm.Score
				}
			}
		}
		b := bound(maxima)
		// Domination over the full cross product.
		if err := forEachSet(lists, func(set match.Set) error {
			if v := score(set); v > b {
				return fmt.Errorf("scorefn: %s upper bound %v below matchset score %v for %v", family, b, v, set)
			}
			return nil
		}); err != nil {
			return err
		}
		// Tightness: all maxima at one shared location scores the bound.
		tight := make(match.Set, terms)
		loc := rng.Intn(30)
		for j := range tight {
			tight[j] = match.Match{Loc: loc, Score: maxima[j]}
		}
		if v := score(tight); v != b {
			return fmt.Errorf("scorefn: %s upper bound %v not tight at zero proximity penalty (got %v)", family, b, v)
		}
	}
	return nil
}

// CheckUnionUpperBoundWIN probes the disjunctive-bound contract of a
// term-exchangeable WIN scoring function on n randomized enumerable
// instances: for every subset of at least minMatch lists and every
// matchset drawn from it (compacted to term indices 0..s−1, exactly
// how the engine hands partial matches to kernels), ScoreWIN must not
// exceed UnionUpperBoundWIN of the full per-list maxima. It returns
// the first violation found, or nil.
func CheckUnionUpperBoundWIN(fn WIN, terms int, n int, rng *rand.Rand) error {
	return checkUnionUpperBound(terms, n, rng,
		func(maxima []float64, m int) float64 { return UnionUpperBoundWIN(fn, maxima, m) },
		func(s match.Set) float64 { return ScoreWIN(fn, s) },
		"WIN")
}

// CheckUnionUpperBoundMED is CheckUnionUpperBoundWIN for the MED
// family.
func CheckUnionUpperBoundMED(fn MED, terms int, n int, rng *rand.Rand) error {
	return checkUnionUpperBound(terms, n, rng,
		func(maxima []float64, m int) float64 { return UnionUpperBoundMED(fn, maxima, m) },
		func(s match.Set) float64 { return ScoreMED(fn, s) },
		"MED")
}

// CheckUnionUpperBoundMAX is CheckUnionUpperBoundWIN for the MAX
// family (maximized-at-match evaluation).
func CheckUnionUpperBoundMAX(fn MAX, terms int, n int, rng *rand.Rand) error {
	return checkUnionUpperBound(terms, n, rng,
		func(maxima []float64, m int) float64 { return UnionUpperBoundMAX(fn, maxima, m) },
		func(s match.Set) float64 { v, _ := ScoreMAX(fn, s); return v },
		"MAX")
}

// checkUnionUpperBound enumerates every subset of ≥ minMatch lists of
// small random instances and verifies the union bound dominates every
// matchset of every subset.
func checkUnionUpperBound(terms, n int, rng *rand.Rand,
	bound func([]float64, int) float64, score func(match.Set) float64, family string) error {
	for i := 0; i < n; i++ {
		lists := make([]match.List, terms)
		maxima := make([]float64, terms)
		for j := range lists {
			m := 1 + rng.Intn(3)
			for k := 0; k < m; k++ {
				lists[j] = append(lists[j], match.Match{Loc: rng.Intn(30), Score: randScore(rng)})
			}
			lists[j].Sort()
			maxima[j] = lists[j][0].Score
			for _, mm := range lists[j] {
				if mm.Score > maxima[j] {
					maxima[j] = mm.Score
				}
			}
		}
		minMatch := 1 + rng.Intn(terms)
		b := bound(maxima, minMatch)
		for mask := 1; mask < 1<<terms; mask++ {
			var sub []match.List
			for j := 0; j < terms; j++ {
				if mask&(1<<j) != 0 {
					sub = append(sub, lists[j])
				}
			}
			if len(sub) < minMatch {
				continue
			}
			if err := forEachSet(sub, func(set match.Set) error {
				if v := score(set); v > b {
					return fmt.Errorf("scorefn: %s union bound %v (m=%d) below subset %b matchset score %v for %v",
						family, b, minMatch, mask, v, set)
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckWindowUpperBoundWIN probes the window-upper-bound contract of a
// WIN scoring function on n randomized enumerable instances: with wmin
// the smallest window over every matchset of the instance, no
// matchset's ScoreWIN may exceed WindowUpperBoundWIN of the per-list
// maxima and wmin — on instances crowded onto a few locations (shared
// tokens, wmin often 0), and on hostile ones mixing zero, negative and
// NaN scores in, where a bound that is itself NaN cuts nothing and so
// passes. And the bound must be worth having: with every list's
// maximum at one shared location it lies within the rounding margin of
// the score. It returns the first violation found, or nil.
func CheckWindowUpperBoundWIN(fn WIN, terms int, n int, rng *rand.Rand) error {
	return checkWindowUpperBound(terms, n, rng,
		func(maxima []float64, wmin int) float64 { return WindowUpperBoundWIN(fn, maxima, wmin) },
		func(s match.Set) float64 { return ScoreWIN(fn, s) },
		"WIN")
}

// CheckWindowUpperBoundMED is CheckWindowUpperBoundWIN for the MED
// family.
func CheckWindowUpperBoundMED(fn MED, terms int, n int, rng *rand.Rand) error {
	return checkWindowUpperBound(terms, n, rng,
		func(maxima []float64, wmin int) float64 { return WindowUpperBoundMED(fn, maxima, wmin) },
		func(s match.Set) float64 { return ScoreMED(fn, s) },
		"MED")
}

func checkWindowUpperBound(terms, n int, rng *rand.Rand,
	bound func([]float64, int) float64, score func(match.Set) float64, family string) error {
	for i := 0; i < n; i++ {
		// 1–3 matches per list on a dozen locations; every other
		// instance draws its scores from the hostile mix.
		draw := randScore
		if i%2 == 1 {
			draw = hostileScore
		}
		lists := make([]match.List, terms)
		for j := range lists {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				lists[j] = append(lists[j], match.Match{Loc: rng.Intn(12), Score: draw(rng)})
			}
			lists[j].Sort()
		}
		maxima := listMaxima(lists)
		wmin := math.MaxInt
		forEachSet(lists, func(set match.Set) error {
			wmin = min(wmin, set.Window())
			return nil
		})
		b := bound(maxima, wmin)
		if err := forEachSet(lists, func(set match.Set) error {
			if v := score(set); v > b {
				return fmt.Errorf("scorefn: %s window bound %v (wmin %d) below matchset score %v for %v in %v", family, b, wmin, v, set, lists)
			}
			return nil
		}); err != nil {
			return err
		}
		tight := make(match.Set, terms)
		for j := range tight {
			tight[j] = match.Match{Loc: 7, Score: randScore(rng)}
			maxima[j] = tight[j].Score
		}
		if v, b := score(tight), bound(maxima, 0); !(b >= v && b-v <= 1e-9*math.Abs(v)) {
			return fmt.Errorf("scorefn: %s window bound %v not within the rounding margin of score %v at zero window", family, b, v)
		}
	}
	return nil
}

// listMaxima returns each list's maximum match score, the window
// bounds' perListMax, as a join kernel tracks it: a NaN score is never
// a maximum, and an all-NaN list reads -Inf.
func listMaxima(lists []match.List) []float64 {
	out := make([]float64, len(lists))
	for j, l := range lists {
		out[j] = math.Inf(-1)
		for _, m := range l {
			if m.Score > out[j] {
				out[j] = m.Score
			}
		}
	}
	return out
}

// forEachSet calls fn on every matchset of the lists' cross product
// (one reused Set), stopping at fn's first error.
func forEachSet(lists []match.List, fn func(match.Set) error) error {
	idx := make([]int, len(lists))
	set := make(match.Set, len(lists))
	for {
		for j := range set {
			set[j] = lists[j][idx[j]]
		}
		if err := fn(set); err != nil {
			return err
		}
		j := len(lists) - 1
		for ; j >= 0; j-- {
			if idx[j]++; idx[j] < len(lists[j]) {
				break
			}
			idx[j] = 0
		}
		if j < 0 {
			return nil
		}
	}
}

// hostileScore draws from the scores a contract-abiding caller never
// sends and a bound must still not mis-cut on: zero and negative
// (ln is -Inf or NaN), NaN itself, exact ones (ties), among ordinary
// scores.
func hostileScore(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return -rng.Float64()
	case 2:
		return math.NaN()
	case 3:
		return 1
	}
	return randScore(rng)
}

func randScore(rng *rand.Rand) float64 {
	// Uniform over (0,1]: the paper's individual-match-score regime.
	return 1 - rng.Float64()
}

func absDist(a, b int) float64 {
	if a < b {
		return float64(b - a)
	}
	return float64(a - b)
}

func sign(x float64) int {
	const eps = 1e-12
	switch {
	case x > eps:
		return 1
	case x < -eps:
		return -1
	default:
		return 0
	}
}
