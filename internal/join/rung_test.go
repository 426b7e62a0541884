package join

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// rungKernel is a kernel with a window screen, and so a cut width.
type rungKernel interface {
	Kernel
	Floored
	windowCapper
}

// byteSource reads a fuzz input one byte at a time, zeros past its end.
type byteSource []byte

func (s *byteSource) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// rungInstance draws a kernel, an instance of 1 to 7 lists and a bar
// from data. Locations come from four ranges — a few tokens (duplicates
// throughout), around bucket 63's edge at 504, multiples of 8, and up to
// match.MaxLocation — scores include NaN, ±Inf and ±0, lists may be
// empty, and one in eight is left out of location order. The bar sits
// on, or one ulp either side of, the instance's own cap at a drawn
// width, or is a non-finite value or a plain number.
func rungInstance(data []byte) (k rungKernel, g gFunc, lists match.Lists, bar float64) {
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
	scores := []float64{1, 0.9, 0.5, 0.25, 1, 0.9, 0.5, 0.25, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -0.5}
	lists = make(match.Lists, 1+src.next()%7)
	for j := range lists {
		n := 1 + src.next()%5
		if n == 5 && src.next()%4 == 0 {
			n = 0
		}
		for ; n > 0; n-- {
			var loc int
			switch src.next() % 4 {
			case 0:
				loc = src.next() % 16
			case 1:
				loc = 480 + src.next()%64
			case 2:
				loc = 8 * (src.next() % 64)
			default:
				loc = match.MaxLocation - src.next()<<32 - src.next()
			}
			lists[j] = append(lists[j], match.Match{Loc: loc, Score: scores[src.next()%len(scores)]})
		}
		if src.next()%8 != 0 {
			slices.SortStableFunc(lists[j], func(a, b match.Match) int { return a.Loc - b.Loc })
		}
	}
	switch c := src.next(); c % 4 {
	case 0:
		bar = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 0.5, 1}[c/4%6]
	default:
		gsum, mag := maxSums(g, lists)
		bar = k.windowCap(gsum, mag, src.next()>>(src.next()%8))
		if c%4 != 1 {
			bar = math.Nextafter(bar, math.Inf(3-2*(c%4)))
		}
	}
	return k, g, lists, bar
}

// maxSums is Σ g_j(max_j) and Σ |g_j(max_j)| over the lists' maxima
// taken in list order, the sums the screen and the rung cap windows by.
func maxSums(g gFunc, lists match.Lists) (gsum, mag float64) {
	for j, l := range lists {
		gj := g.G(j, Signature(l).Max)
		gsum += gj
		mag += math.Abs(gj)
	}
	return gsum, mag
}

// checkRung holds the cache rung to the exact window screen on the
// instance data draws:
//   - a list's signature maximum is the screen's, bit for bit, and its
//     mask is the OR of its matches' buckets — zero, never cutting, for
//     an empty or unsorted list;
//   - the cut width is exact: the cap at w* is below the bar and the cap
//     one narrower is not;
//   - whatever width Apart proves, the screen's smallest window is at
//     least that wide, so a rung cut is a cut the armed kernel makes.
func checkRung(t *testing.T, data []byte) {
	k, g, lists, bar := rungInstance(data)
	var s eventStream
	var memo gMemo
	memo.bind(g)
	memo.grow(len(lists))
	wmin, _, _, screened := s.screen(lists, &memo)
	sigs := make([]Sig, len(lists))
	for j, l := range lists {
		sigs[j] = Signature(l)
		var mask uint64
		sorted := slices.IsSortedFunc(l, func(a, b match.Match) int { return a.Loc - b.Loc })
		for _, m := range l {
			mask |= 1 << min(max(m.Loc/8, 0), 63)
		}
		if !sorted {
			mask = 0
		}
		if sigs[j].Mask != mask {
			t.Fatalf("list %d: mask %#x, want %#x\n%v", j, sigs[j].Mask, mask, l)
		}
		if screened && math.Float64bits(sigs[j].Max) != math.Float64bits(s.terms[j].smax) {
			t.Fatalf("list %d: signature maximum %v, the screen's %v\n%v", j, sigs[j].Max, s.terms[j].smax, l)
		}
	}
	w, cuts := k.CutWidth(sigs, bar)
	if again, cutsAgain := k.CutWidth(sigs, bar); again != w || cutsAgain != cuts {
		t.Fatalf("cut width %d (%v), then %d (%v) from the memo", w, cuts, again, cutsAgain)
	}
	gsum, mag := maxSums(g, lists)
	if cuts {
		if c := k.windowCap(gsum, mag, w); !(c < bar) || bar-bar != 0 {
			t.Fatalf("cut width %d: cap %v is not below the bar %v", w, c, bar)
		}
		if c := k.windowCap(gsum, mag, w-1); w > 0 && !(bar <= c) {
			t.Fatalf("cut width %d: cap %v one narrower is below the bar %v", w, c, bar)
		}
	} else if bar-bar == 0 && k.windowCap(gsum, mag, maxWindow) < bar {
		t.Fatalf("no cut width, but the widest window's cap %v is below the bar %v", k.windowCap(gsum, mag, maxWindow), bar)
	}
	for _, ww := range []int{w, 0, 1, 8, 9, 17, 500, 1 << 20} {
		if Apart(sigs, ww) && !(screened && wmin >= ww) {
			t.Fatalf("Apart proves width %d, the screen's smallest window is %d (ok %v)\n%v", ww, wmin, screened, lists)
		}
	}
	if cuts && Apart(sigs, w) {
		k.SetFloor(bar)
		k.Reset(nil, lists)
		if _, _, ok := k.Join(); ok || !k.WindowCut() {
			t.Fatalf("the rung cuts at width %d and bar %v, the armed kernel does not (ok %v)\n%v", w, bar, ok, lists)
		}
	}
}

// FuzzScreenRung runs checkRung on fuzzed instances; scripts/check.sh
// fuzzes it for 10 s.
func FuzzScreenRung(f *testing.F) {
	f.Add([]byte{0, 3, 3, 0, 1, 0, 3, 0, 2, 1, 0, 0, 5, 1})
	f.Add([]byte{2, 6, 2, 1, 30, 0, 3, 40, 1, 4, 2, 3, 9, 2, 1, 0, 7, 3, 9, 200, 0, 2})
	f.Add([]byte{1, 1, 5, 3, 0, 0, 8, 1, 9, 2, 63, 0, 4, 1, 3, 2, 3, 255, 7})
	f.Fuzz(func(t *testing.T, data []byte) { checkRung(t, data) })
}

// TestScreenRung is checkRung over seeded random inputs, so that every
// run of the suite covers what the fuzzer explores, not just its seeds.
func TestScreenRung(t *testing.T) {
	rng := rand.New(rand.NewSource(3301))
	cut := 0
	for trial := 0; trial < 20000; trial++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		checkRung(t, data)
		k, _, lists, bar := rungInstance(data)
		sigs := make([]Sig, len(lists))
		for j, l := range lists {
			sigs[j] = Signature(l)
		}
		if w, ok := k.CutWidth(sigs, bar); ok && w > 0 && Apart(sigs, w) {
			cut++
		}
	}
	t.Logf("%d rung cuts", cut)
	if cut < 500 {
		t.Fatalf("the rung cut %d of 20000 instances at a width above 0: not exercised", cut)
	}
}

// TestApartDilation pins Apart on two one-match lists: b buckets apart
// they prove every width up to 8(b−1)+1 — a window that narrow reaches
// at most b−1 buckets — and nothing wider; in one bucket, bucket 63's
// catch-all past 504 and bucket 0's below 0 included, they prove only
// width 0.
func TestApartDilation(t *testing.T) {
	sig := func(loc int) Sig { return Signature(match.List{{Loc: loc, Score: 1}}) }
	for _, tc := range []struct {
		a, b   int
		widest int // the widest width Apart proves
	}{
		{0, 7, 0},
		{3, 3, 0},
		{7, 8, 1},
		{503, 504, 1},
		{0, 16, 9},
		{100, 300, 193},
		{0, 1000, 497},
		{600, 5000, 0},
		{-40, 0, 0},
	} {
		sigs := []Sig{sig(tc.a), sig(tc.b)}
		widest := -1
		for w := 0; w <= 5000; w++ {
			if Apart(sigs, w) {
				widest = w
			}
		}
		if widest != tc.widest {
			t.Errorf("%d and %d: Apart proves up to %d, want %d", tc.a, tc.b, widest, tc.widest)
		}
	}
	if Apart([]Sig{sig(0), {}}, 0) || Apart(nil, 0) {
		t.Fatal("a zero mask, or no lists at all, proved something")
	}
}
