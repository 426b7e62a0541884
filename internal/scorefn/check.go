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

// CheckCapWIN probes every rung of fn's score cap (bounds.go) on n
// random instances of terms lists, each enumerated exhaustively. Even
// instances are plain: 1–3 matches per list, scores in (0,1], on 30
// locations. Odd ones are crowded onto 12 locations with zero,
// negative, NaN and tied scores mixed in; a NaN cap cuts nothing and so
// passes. With minMatch drawn from [1, terms], every matchset of every
// subset of at least minMatch lists (compacted to term indices 0..s−1,
// as the engine hands partial matches to kernels) must score at most
// the disjunctive cap, and every matchset of all the lists at most the
// list-max cap and the window cap at w_min, the instance's smallest
// window, found by brute force. And each cap must be worth having: with
// every list's maximum at one location the list-max cap is the score,
// to the bit; spread over a window w > 0, the window cap at w lies
// within the rounding margin above it.
//
// Its distinct-location arm does the same for the caps at the window
// floor of pairwise-distinct locations (ListMaxCap with
// DistinctFloorWIN), on one more instance per round whose matches all
// sit at distinct locations, with scores drawn from 1, the two floats
// just below 1, 0.7 and 0.4: every matchset must score at most them,
// and the matchset of weight-1 matches at adjacent locations, the
// distinct-location optimum, must score the conjunctive cap — to the
// bit when every g_j(1) is 0, within the rounding margin otherwise. It
// returns the first violation found, or nil.
func CheckCapWIN(fn WIN, terms, n int, rng *rand.Rand) error {
	return checkCaps(terms, n, rng, capFamily{
		name:  "WIN",
		fn:    fn,
		score: func(s match.Set) float64 { return ScoreWIN(fn, s) },
		g:     fn.G,
		capAt: func(sum, mag float64, w int) float64 { return CapWIN(fn, sum, mag, w) },
		floor: DistinctFloorWIN,
	})
}

// CheckCapMED is CheckCapWIN for the MED family, with DistinctFloorMED.
func CheckCapMED(fn MED, terms, n int, rng *rand.Rand) error {
	return checkCaps(terms, n, rng, capFamily{
		name:  "MED",
		fn:    fn,
		score: func(s match.Set) float64 { return ScoreMED(fn, s) },
		g:     fn.G,
		capAt: func(sum, mag float64, w int) float64 { return CapMED(fn, sum, mag, w) },
		floor: DistinctFloorMED,
	})
}

// CheckCapMAX is CheckCapWIN for the MAX family, scored by
// maximized-at-match evaluation, the regime the join algorithms and the
// engine operate in. MAX has no window cap, and so no distinct-location
// arm, and its instances are all plain: a negative score decays towards
// 0, rising with distance.
func CheckCapMAX(fn MAX, terms, n int, rng *rand.Rand) error {
	return checkCaps(terms, n, rng, capFamily{
		name:  "MAX",
		fn:    fn,
		score: func(s match.Set) float64 { v, _ := ScoreMAX(fn, s); return v },
		g:     func(j int, x float64) float64 { return fn.Contribution(j, x, 0) },
		capAt: func(sum, mag float64, _ int) float64 { return CapMAX(fn, sum, mag) },
	})
}

// capFamily is what checkCaps needs of a family: its score, and
// ListMaxCap's arguments for it — the function, g and capAt — plus its
// window floor at pairwise-distinct locations, nil for a family without
// a window cap.
type capFamily struct {
	name  string
	fn    any
	score func(match.Set) float64
	g     func(term int, max float64) float64
	capAt func(sum, mag float64, w int) float64
	floor func(s int) int
}

// listMax is the family's list-max rung at window floor floor.
func (f capFamily) listMax(maxima []float64, minMatch int, floor func(int) int) float64 {
	return ListMaxCap(f.fn, maxima, minMatch, floor, f.g, f.capAt)
}

// window is the family's window cap over maxima at window w.
func (f capFamily) window(maxima []float64, w int) float64 {
	gsum, mag := gTotals(f.g, maxima)
	return f.capAt(gsum, mag, w)
}

func checkCaps(terms, n int, rng *rand.Rand, fam capFamily) error {
	windowed := fam.floor != nil
	for i := 0; i < n; i++ {
		draw, locs := randScore, 30
		if i%2 == 1 && windowed {
			draw, locs = hostileScore, 12
		}
		lists := make([]match.List, terms)
		for j := range lists {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				lists[j] = append(lists[j], match.Match{Loc: rng.Intn(locs), Score: draw(rng)})
			}
			lists[j].Sort()
		}
		maxima, minMatch, wmin := listMaxima(lists), 1+rng.Intn(terms), math.MaxInt
		forEachSet(lists, func(set match.Set) error {
			wmin = min(wmin, set.Window())
			return nil
		})
		conj, window := fam.listMax(maxima, 0, nil), math.Inf(1)
		if windowed {
			window = fam.window(maxima, wmin)
		}
		union := fam.listMax(append([]float64(nil), maxima...), minMatch, nil)
		if err := eachSubsetSet(lists, minMatch, func(set match.Set) error {
			if v := fam.score(set); v > union || len(set) == terms && (v > conj || v > window) {
				return fmt.Errorf("scorefn: %s matchset %v in %v scores %v, above a cap: list-max %v, union (m=%d) %v, window (w_min %d) %v",
					fam.name, set, lists, v, conj, minMatch, union, wmin, window)
			}
			return nil
		}); err != nil {
			return err
		}
		// Tightness: every list's maximum, term 0 at location 7 and the
		// others w to its right, so every matchset's window is w and MED's
		// distances to the median sum to w.
		w := 0
		if terms > 1 && i%2 == 1 && windowed {
			w = 1 + rng.Intn(3)
		}
		tight := make(match.Set, terms)
		for j := range tight {
			tight[j] = match.Match{Loc: 7 + w, Score: randScore(rng)}
			maxima[j] = tight[j].Score
		}
		tight[0].Loc = 7
		v := fam.score(tight)
		if b := fam.listMax(maxima, 0, nil); w == 0 && b != v {
			return fmt.Errorf("scorefn: %s list-max cap %v not tight at zero window (score %v)", fam.name, b, v)
		}
		if windowed {
			if b := fam.window(maxima, w); !withinMargin(b, v) {
				return fmt.Errorf("scorefn: %s window cap %v not within the rounding margin of score %v at window %d", fam.name, b, v, w)
			}
			if err := checkDistinct(terms, rng, fam); err != nil {
				return err
			}
		}
	}
	return nil
}

// distinctScores are the distinct-location arm's match scores: 1, whose
// g is 0 under ExpWIN and ExpMED, so that the cap there carries no
// margin; the two floats just below it, whose g is a few ulps below 0;
// and two plain weights.
var distinctScores = [...]float64{1, 1 - 0x1p-53, 1 - 0x1p-52, 0.7, 0.4}

// checkDistinct is checkCaps's distinct-location arm on one instance of
// terms lists, 1–3 matches each, at pairwise-distinct locations packed
// into a range barely wider than their number.
func checkDistinct(terms int, rng *rand.Rand, fam capFamily) error {
	locs := rng.Perm(3*terms + 2)
	lists := make([]match.List, terms)
	for j := range lists {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			lists[j] = append(lists[j], match.Match{Loc: locs[0], Score: distinctScores[rng.Intn(len(distinctScores))]})
			locs = locs[1:]
		}
		lists[j].Sort()
	}
	maxima, minMatch := listMaxima(lists), 1+rng.Intn(terms)
	conj := fam.listMax(maxima, 0, fam.floor)
	union := fam.listMax(append([]float64(nil), maxima...), minMatch, fam.floor)
	if err := eachSubsetSet(lists, minMatch, func(set match.Set) error {
		if v := fam.score(set); v > union || len(set) == terms && v > conj {
			return fmt.Errorf("scorefn: %s matchset %v at distinct locations in %v scores %v, above a distinct-location cap: list-max %v, union (m=%d) %v",
				fam.name, set, lists, v, conj, minMatch, union)
		}
		return nil
	}); err != nil {
		return err
	}
	// Tightness: weight-1 matches at adjacent locations, the narrowest
	// window and the least distance to the median distinct locations
	// allow.
	tight := make(match.Set, terms)
	for j := range tight {
		tight[j] = match.Match{Loc: 7 + j, Score: 1}
		maxima[j] = 1
	}
	v, b := fam.score(tight), fam.listMax(maxima, 0, fam.floor)
	if _, mag := gTotals(fam.g, maxima); mag == 0 && b != v || !withinMargin(b, v) {
		return fmt.Errorf("scorefn: %s distinct-location cap %v not tight at adjacent locations (score %v, %d terms)", fam.name, b, v, terms)
	}
	return nil
}

// withinMargin reports whether cap b dominates score v by no more than
// a rounding margin.
func withinMargin(b, v float64) bool {
	return b >= v && b-v <= 1e-9*math.Max(math.Abs(v), 1)
}

// eachSubsetSet calls fn on every matchset of every subset of at least
// minMatch of the lists, compacted to term indices 0..s−1, stopping at
// fn's first error.
func eachSubsetSet(lists []match.List, minMatch int, fn func(match.Set) error) error {
	for mask := 1; mask < 1<<len(lists); mask++ {
		var sub []match.List
		for j := range lists {
			if mask&(1<<j) != 0 {
				sub = append(sub, lists[j])
			}
		}
		if len(sub) < minMatch {
			continue
		}
		if err := forEachSet(sub, fn); err != nil {
			return err
		}
	}
	return nil
}

// gTotals returns Σ g(j, max_j) in term order and the sum of its terms'
// magnitudes: a window cap's gsum and mag.
func gTotals(g func(int, float64) float64, maxima []float64) (sum, mag float64) {
	for j, m := range maxima {
		v := g(j, m)
		sum += v
		mag += math.Abs(v)
	}
	return sum, mag
}

// listMaxima returns each list's maximum match score, the caps'
// perListMax, as a join kernel tracks it: a NaN score is never
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
