package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bestjoin/internal/dedup"
	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// TestNeverPruneOnEquality engineers an exact tie between a
// candidate's score upper bound and the bar it must clear, and checks
// the candidate still joins. With LinearWIN{Scale: 1} (G(x) = x,
// F(gsum, w) = gsum − w) every quantity below is an integer-valued
// float, so the tie is exact, not approximate.
//
// Concepts A = {apple: 2, gold: 3} and B = {apple: 2}; K = 2; one
// walker, so the walk is id-ordered.
//
//   - doc 1 is "apple": maxima (2, 2) give bound 4, and the best join
//     scores exactly 4 — the bound is tight.
//   - docs 8 and 9 are "gold pad apple": per-list maxima (3, 2) give
//     bound 5; the actual best join puts both concepts on the single
//     "apple" token (window 0) for score 4 — the bound is slack.
//
// Under one id-ordered walker every kept document has a smaller id
// than the pivot, so a local tie is always lost on id. The tie comes
// from a shared Query.Floor raised to 4 before the search (sound: docs
// 1 and 8 score 4): the floor entry is (4, MaxInt), which no document
// id exceeds, so doc 1's bound equals its bar. Doc 1 must still be
// joined — by the pivot screen, the cache rung and the kernel floor
// alike — and kept, so the answer is docs [1, 8]. An engine that
// pruned on equality (bound <= bar), or took the floor's tie as lost,
// would skip doc 1 and return [8, 9].
func TestNeverPruneOnEquality(t *testing.T) {
	docs := make([]string, 10)
	for i := range docs {
		docs[i] = "pad filler"
	}
	docs[1] = "apple"
	docs[8] = "gold pad apple"
	docs[9] = "gold pad apple"
	compact := buildCompact(t, docs)

	floor := NewGlobalFloor()
	floor.Raise(4)
	q := Query{
		Concepts: []index.Concept{
			{"apple": 2, "gold": 3},
			{"apple": 2},
		},
		Join:  WINJoiner(scorefn.LinearWIN{Scale: 1}),
		K:     2,
		Floor: floor,
	}
	e := New(compact, Config{Workers: 1})
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 2 {
		t.Fatalf("got %d docs, want 2: %+v", len(res.Docs), res.Docs)
	}
	if res.Docs[0].Doc != 1 || res.Docs[1].Doc != 8 {
		t.Fatalf("got docs [%d, %d], want [1, 8] — doc 1's bound equals the floor and must not be pruned",
			res.Docs[0].Doc, res.Docs[1].Doc)
	}
	if res.Docs[0].Score != 4 || res.Docs[1].Score != 4 {
		t.Fatalf("got scores [%v, %v], want [4, 4]", res.Docs[0].Score, res.Docs[1].Score)
	}
	// Doc 9 loses only on the doc-id tie-break, never by pruning: its
	// bound (5) exceeds the final floor. It is joined, and its optimum,
	// 4, is one ulp under its bar: the kernel's anchor trim reports that
	// as a floor cut (join.Floored), the query's one. Doc 1, whose
	// score equals its bar, is not cut.
	if res.Evaluated != 3 || res.Pruned != 0 {
		t.Fatalf("Evaluated=%d Pruned=%d, want 3 evaluated and 0 pruned", res.Evaluated, res.Pruned)
	}
	if st := e.Stats(); st.FloorCutJoins != 1 {
		t.Fatalf("%d joins cut by the kernel floor, want 1: doc 9, which loses its id tie", st.FloorCutJoins)
	}
	if res.Partial {
		t.Fatal("result marked Partial")
	}
}

// slowRepeatKernel is a WIN kernel that dawdles over documents whose
// first list holds three matches or more, so a test can make chosen documents
// reach the heap after everything dispatched behind them. Embedding
// keeps every optional capability (bounds, join.Floored) of the kernel.
type slowRepeatKernel struct {
	*join.WINKernel
	slow bool
}

func (k *slowRepeatKernel) Reset(fn any, lists match.Lists) {
	k.slow = len(lists) > 0 && len(lists[0]) > 2
	k.WINKernel.Reset(fn, lists)
}

func (k *slowRepeatKernel) Join() (match.Set, float64, bool) {
	if k.slow {
		time.Sleep(2 * time.Millisecond)
	}
	return k.WINKernel.Join()
}

// TestLateLowIdsStillWin: every document scores the same (LinearWIN,
// integer-valued, as in TestNeverPruneOnEquality), so the answer is the
// k lowest ids, and both arms let those reach the heap when it may
// already hold k ties with larger ids and every screen is comparing
// against them. A tie lost on id prunes; these ties are won on id and
// must not. At 8 walkers the first id range holds documents 0…6, and
// the walkers on the ranges above it join their ties meanwhile.
//
//   - AND: documents 0…9 are "apple" (bound 4 = score 4), 10… are
//     "gold pad apple" (bound 5, score 4). 0…4 must displace whatever
//     the heap holds; 5…9 have lost the tie once 0…4 are kept.
//   - OR: documents 0…4 repeat "gold" and are joined slowly, so the
//     other walkers fill the heap with the 395 "apple" documents'
//     ties before 0…4 reach it.
func TestLateLowIdsStillWin(t *testing.T) {
	const n, k = 400, 5
	factory := func() join.Kernel {
		return &slowRepeatKernel{WINKernel: join.NewWINKernel(scorefn.LinearWIN{Scale: 1})}
	}
	and := make([]string, n)
	or := make([]string, n)
	for i := range and {
		and[i], or[i] = "gold pad apple", "apple"
		if i < 2*k {
			and[i] = "apple"
		}
		if i < k {
			or[i] = "gold gold gold"
		}
	}
	arms := []struct {
		name  string
		docs  []string
		query Query
		m     int
		score float64
	}{
		{"and", and, Query{Concepts: []index.Concept{{"apple": 2, "gold": 3}, {"apple": 2}}}, 2, 4},
		{"or", or, Query{Concepts: []index.Concept{{"gold": 2}, {"apple": 2}}, Mode: ModeOR}, 1, 2},
	}
	for _, arm := range arms {
		compact := buildCompact(t, arm.docs)
		q := arm.query
		q.Join, q.K = factory, k
		want := oracle(compact, q.Concepts, arm.m, factory, k)
		pruned := 0
		for trial := 0; trial < 5; trial++ {
			res, err := New(compact, Config{Workers: 8}).Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameDocs(t, arm.name, res.Docs, want)
			for i, dr := range res.Docs {
				if dr.Doc != i || dr.Score != arm.score {
					t.Fatalf("%s: rank %d is doc %d score %v, want doc %d score %v", arm.name, i, dr.Doc, dr.Score, i, arm.score)
				}
			}
			if len(res.Docs) != k || res.Partial || res.Evaluated+res.Pruned != res.Candidates {
				t.Fatalf("%s: %d docs, Partial %v, Evaluated %d + Pruned %d of %d", arm.name, len(res.Docs), res.Partial, res.Evaluated, res.Pruned, res.Candidates)
			}
			pruned += res.Pruned
		}
		if pruned == 0 {
			t.Fatalf("%s: no lost tie was pruned in any trial", arm.name)
		}
	}
}

// TestPruningSkipsDominatedCandidates checks pruning actually fires on
// a corpus built for it — one strong document and many weak ones — and
// that the result is internal/refrank's exactly. Weak documents bound
// at 1 can never beat the floor of 3 set by the strong document, so
// with K = 1 all of them must be skipped without a join; at a K that
// covers every candidate no bar rises, and the walk joins them all.
func TestPruningSkipsDominatedCandidates(t *testing.T) {
	const weak = 40
	docs := make([]string, 0, weak+1)
	docs = append(docs, "gold apple") // doc 0: max score 3 via "gold"
	for i := 0; i < weak; i++ {
		docs = append(docs, "apple pad") // bound 1, actual score 1
	}
	compact := buildCompact(t, docs)

	q := Query{
		Concepts: []index.Concept{{"gold": 3, "apple": 1}},
		Join:     WINJoiner(scorefn.LinearWIN{Scale: 1}),
		K:        1,
	}

	pruned := New(compact, Config{Workers: 1})
	rp, err := pruned.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	cover := q
	cover.K = weak + 1
	ru, err := New(compact, Config{Workers: 1}).Search(context.Background(), cover)
	if err != nil {
		t.Fatal(err)
	}

	if len(rp.Docs) != 1 || rp.Docs[0].Doc != 0 || rp.Docs[0].Score != 3 {
		t.Fatalf("pruned result wrong: %+v", rp.Docs)
	}
	assertSameDocs(t, "K 1", rp.Docs, oracle(compact, q.Concepts, 1, q.Join, 1))
	assertSameDocs(t, "K covering", ru.Docs, oracle(compact, q.Concepts, 1, q.Join, cover.K))
	if rp.Pruned != weak {
		t.Fatalf("Pruned = %d, want %d (every weak candidate skipped)", rp.Pruned, weak)
	}
	if rp.Evaluated != 1 {
		t.Fatalf("Evaluated = %d, want 1", rp.Evaluated)
	}
	if rp.Partial {
		t.Fatal("pruned candidates must not mark the result Partial")
	}
	if ru.Pruned != 0 || ru.Evaluated != weak+1 {
		t.Fatalf("K covering every candidate: Evaluated=%d Pruned=%d", ru.Evaluated, ru.Pruned)
	}

	st := pruned.Stats()
	if st.PrunedDocs != weak {
		t.Fatalf("Stats.PrunedDocs = %d, want %d", st.PrunedDocs, weak)
	}
	wantFrac := float64(weak) / float64(weak+1)
	if st.PrunedFraction != wantFrac {
		t.Fatalf("Stats.PrunedFraction = %v, want %v", st.PrunedFraction, wantFrac)
	}
}

// TestPruningFloorMonotone drives many queries of varying K through
// one engine and checks the per-query invariant that makes pruning
// lossless: Evaluated + Pruned always accounts for every candidate,
// and results never shrink below min(K, candidates).
func TestPruningFloorMonotone(t *testing.T) {
	docs := make([]string, 60)
	for i := range docs {
		switch i % 4 {
		case 0:
			docs[i] = "gold apple pad"
		case 1:
			docs[i] = "apple gold"
		case 2:
			docs[i] = "apple pad pad"
		default:
			docs[i] = "pad gold apple"
		}
	}
	compact := buildCompact(t, docs)
	e := New(compact, Config{Workers: 3})
	for k := 1; k <= 8; k++ {
		q := Query{
			Concepts: []index.Concept{{"gold": 3, "apple": 1}, {"apple": 2}},
			Join:     ValidWINJoiner(scorefn.LinearWIN{Scale: 1}),
			K:        k,
		}
		res, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("k=%d", k)
		if res.Evaluated+res.Pruned != res.Candidates {
			t.Fatalf("%s: Evaluated %d + Pruned %d != Candidates %d",
				label, res.Evaluated, res.Pruned, res.Candidates)
		}
		want := k
		if res.Candidates < want {
			want = res.Candidates
		}
		if len(res.Docs) != want {
			t.Fatalf("%s: got %d docs, want %d", label, len(res.Docs), want)
		}
		if res.Partial {
			t.Fatalf("%s: unexpectedly Partial", label)
		}
	}
}

// TestWindowScreenNeverCutsOnEquality is TestNeverPruneOnEquality for
// the window screen, at the one place its bound can fall under a score
// it must dominate: rounding. The screen sums g_j over the lists'
// maxima in term order; the WIN kernel sums the same numbers in
// location order. The weights below are picked so the two orders
// disagree in the last bit — (a+b)+c, the screen's, is one ulp under
// (b+c)+a and (a+c)+b — and the documents put the three words at
// adjacent positions in the four orders that give the larger sum, so
// every one of them scores the same bits, and a bound that is the
// screen's sum taken literally sits one ulp below all of them.
//
// K = 2, one worker. Documents 8 and 9 carry a far-away strong synonym
// that lifts their dispatch bound, not their score; they fill the heap
// first and the floor becomes exactly the shared score. Then 0…5 arrive
// in id order: each scores the floor and 0 and 1 must take the heap
// over on the doc-id tie-break. Only the bound's rounding margin lets
// them reach the kernel: without it all six are cut and the answer is
// [8, 9]. Documents 6 and 7 spread the words over one more position and
// are the screen's to cut; document 10 holds the words in term order,
// scores the smaller sum, and loses on score. The walk takes the
// documents in id order, so 0 and 1 hold the heap before 2…5, 8 and 9
// are joined: each of those scores one ulp under its bar (a lost id
// tie), and the kernel's anchor trim reports it, and 10, as a cut after
// its program. That makes 9 window cuts, none of a document at its bar.
func TestWindowScreenNeverCutsOnEquality(t *testing.T) {
	var a, b, c float64
search:
	for i := 10; i <= 40; i++ {
		for j := 10; j <= 40; j++ {
			for k := 10; k <= 40; k++ {
				a, b, c = float64(i)/10, float64(j)/10, float64(k)/10
				if big := (b + c) + a; big == (a+c)+b && (a+b)+c < big && (a+b)+c-2 < big-2 {
					break search
				}
			}
		}
	}
	small, big := (a+b)+c-2, (b+c)+a-2
	if !(small < big) {
		t.Fatal("no weights whose sum depends on the order in the way the test needs")
	}
	orders := []string{"berry cherry apple", "cherry berry apple", "apple cherry berry", "cherry apple berry"}
	docs := make([]string, 11)
	for d := 0; d < 6; d++ {
		docs[d] = orders[d%len(orders)]
	}
	docs[6], docs[7] = "berry cherry pad apple", "cherry pad berry apple"
	docs[8] = orders[0] + strings.Repeat(" pad", 30) + " anchor"
	docs[9] = orders[1] + strings.Repeat(" pad", 30) + " anchor"
	docs[10] = "apple berry cherry"
	compact := buildCompact(t, docs)

	e := New(compact, Config{Workers: 1})
	res, err := e.Search(context.Background(), Query{
		Concepts: []index.Concept{{"apple": a, "anchor": a + 5}, {"berry": b}, {"cherry": c}},
		Join:     WINJoiner(scorefn.LinearWIN{Scale: 1}),
		K:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 2 || res.Docs[0].Doc != 0 || res.Docs[1].Doc != 1 {
		t.Fatalf("got %+v, want docs [0, 1] — they score the floor exactly and must not be cut", res.Docs)
	}
	if res.Docs[0].Score != big || res.Docs[1].Score != big {
		t.Fatalf("got scores [%v, %v], want [%v, %v]", res.Docs[0].Score, res.Docs[1].Score, big, big)
	}
	if res.Evaluated != len(docs) || res.Pruned != 0 || res.Partial {
		t.Fatalf("Evaluated=%d Pruned=%d Partial=%v, want all %d evaluated", res.Evaluated, res.Pruned, res.Partial, len(docs))
	}
	if st := e.Stats(); st.WindowCutJoins != 9 || st.FloorCutJoins != 9 {
		t.Fatalf("WindowCutJoins=%d FloorCutJoins=%d, want 9 and 9: documents 2 to 10, nothing at its bar", st.WindowCutJoins, st.FloorCutJoins)
	}
}

// TestAnchorTrimBoundary pins the WIN and MED kernels' anchor trim at
// its edge, for the bare kernels and the valid-matchset wrapper, at one
// walker. LinearWIN and LinearMED at scale 1 score two terms as their
// summed weights less the window, in integers and halves, so every
// score below is exact. A shared floor of 1.5 arms every join; on
// maxima (3, 3) and (3, 2.5) the kernels' cut width at it is w* = 5, so
// the trim keeps what lies within 4 tokens of the anchor, the one
// "apple".
//
//   - doc 0 ties the floor: apple (3) and blue (2.5) 4 tokens apart,
//     scoring 1.5 — equal to its bar, so never cut.
//   - doc 1 wins: apple and berry (3) 4 tokens apart, w*−1, scoring 2,
//     with a second berry far away that the trim drops.
//   - doc 2 is the decoy: berry exactly w* from the apple, scoring 1,
//     and bran (0.5) 3 before it, scoring 0.5; the screen's window, 3,
//     lets it through, and the trim leaves only the bran. It is the
//     query's one cut.
//
// A trim one token narrower would drop doc 0's blue and doc 1's near
// berry, and lose both from the answer, which is internal/refrank's.
func TestAnchorTrimBoundary(t *testing.T) {
	docs := []string{
		"apple pad pad pad blue",
		"apple pad pad pad berry" + strings.Repeat(" pad", 20) + " berry",
		"bran pad pad apple pad pad pad pad berry",
	}
	compact := buildCompact(t, docs)
	concepts := []index.Concept{{"apple": 3}, {"berry": 3, "blue": 2.5, "bran": 0.5}}
	const bar = 1.5
	for name, factory := range map[string]KernelFactory{
		"win":       WINJoiner(scorefn.LinearWIN{Scale: 1}),
		"med":       MEDJoiner(scorefn.LinearMED{Scale: 1}),
		"valid win": ValidWINJoiner(scorefn.LinearWIN{Scale: 1}),
		"valid med": ValidMEDJoiner(scorefn.LinearMED{Scale: 1}),
	} {
		k := factory().(join.Floored)
		for _, maxima := range [][]float64{{3, 3}, {3, 2.5}} {
			if w, ok := k.CutWidth([]join.Sig{{Max: maxima[0]}, {Max: maxima[1]}}, bar); !ok || w != 5 {
				t.Fatalf("%s: cut width %d (%v) at maxima %v, want 5", name, w, ok, maxima)
			}
		}
		floor := NewGlobalFloor()
		floor.Raise(bar)
		q := Query{Concepts: concepts, Join: factory, K: 2, Floor: floor}
		e := New(compact, Config{Workers: 1})
		res, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(compact, concepts, len(concepts), factory, q.K)
		if len(want) != 2 || want[0].Doc != 1 || want[0].Score != 2 || want[1].Doc != 0 || want[1].Score != bar {
			t.Fatalf("%s: the reference ranks %+v, want doc 1 at 2, then doc 0 at %v", name, want, bar)
		}
		assertSameDocs(t, name, res.Docs, want)
		if st := e.Stats(); st.JoinsRun != 3 || st.FloorCutJoins != 1 || st.WindowCutJoins != 1 {
			t.Fatalf("%s: JoinsRun %d, FloorCutJoins %d, WindowCutJoins %d, want 3, 1 and 1: the decoy alone is cut",
				name, st.JoinsRun, st.FloorCutJoins, st.WindowCutJoins)
		}
	}
}

// countingBound is a join.UpperBounded that counts its evaluations,
// adds to minMatch each maximum weighed by its position (so order
// matters), panics on a negative maximum, and — asked for a
// disjunctive cap — scrambles its argument as the shipped caps'
// in-place sort may.
type countingBound struct {
	join.Kernel
	calls int
}

func (c *countingBound) ScoreUpperBound(perListMax []float64, minMatch int) float64 {
	c.calls++
	sum := float64(minMatch)
	for i, m := range perListMax {
		if m < 0 {
			panic("negative maximum")
		}
		sum += float64(i+1) * m
		if minMatch > 0 {
			perListMax[i] = -1
		}
	}
	return sum
}

// TestBoundSigsRemembersEqualMaxima: a candidate whose maxima an
// earlier candidate had, bit for bit, takes that candidate's bound
// without an evaluation; any other maxima — another order, another
// value, a zero of the other sign — are evaluated; arguments wider than
// the memo are evaluated every time; and a panicking bound fails the
// bounder, which then bounds nothing.
func TestBoundSigsRemembersEqualMaxima(t *testing.T) {
	var tally Tally
	kern := &countingBound{}
	b := &bounder{t: &tally, ub: kern}
	negZero := math.Copysign(0, -1)
	maxima := [][2]float64{
		{1, 0.5}, {1, 0.5}, {1, 0.5}, // remembered twice
		{0.5, 1},                 // order
		{0.5, 0.75},              // value
		{0, 0.5}, {negZero, 0.5}, // -0 is not +0
		{negZero, 0.5},
		{1, 0.5}, // remembered from the first
	}
	for i, m := range maxima {
		if got, want := b.boundSigs([]join.Sig{{Max: m[0]}, {Max: m[1]}}, 0), m[0]+2*m[1]; got != want {
			t.Fatalf("candidate %d: bound %v, want %v", i, got, want)
		}
	}
	if kern.calls != 5 {
		t.Fatalf("%d evaluations for %d candidates, want 5", kern.calls, len(maxima))
	}
	wide := make([]join.Sig, boundMemoWidth+1)
	for i := 0; i < 2; i++ {
		if got := b.boundSigs(wide, 0); got != 0 || kern.calls != 6+i {
			t.Fatalf("wide candidate %d: bound %v after %d evaluations, want 0 after %d", i, got, kern.calls, 6+i)
		}
	}
	if got := b.boundSigs([]join.Sig{{Max: 1}, {Max: -1}}, 0); !math.IsInf(got, 1) || !b.failed || tally.JoinPanics != 1 {
		t.Fatalf("a panicking bound: %v, failed %v, JoinPanics %d, want +Inf, true and 1", got, b.failed, tally.JoinPanics)
	}
}

// TestNegativeWeightWINServes: under the "win" family a negative
// concept weight makes a candidate's score cap NaN (ExpWIN.G is a
// logarithm). The query must still be answered, exactly as
// internal/refrank ranks it — with a few candidates and with many.
func TestNegativeWeightWINServes(t *testing.T) {
	few := []string{
		"lenovo nba partnership",
		"dell olympics alliance",
		"lenovo basketball deal",
		"hewlett nba deal lenovo",
	}
	for name, docs := range map[string][]string{"few": few, "many": testCorpus(300, 12)} {
		compact := buildCompact(t, docs)
		concepts := testConcepts()
		concepts[0] = index.Concept{"lenovo": -0.5, "dell": 0.9, "hewlett": 0.8}
		q := Query{Concepts: concepts, Spec: KernelSpec{Family: "win", Alpha: 0.07}, K: 10}
		got, err := New(compact, Config{Workers: 2}).Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := q.Spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		assertSameDocs(t, name, got.Docs, oracle(compact, concepts, 3, factory, q.K))
	}
}

// TestCustomKernelRunsUnpruned pins the compatibility contract: a
// query whose kernel cannot provide upper bounds (a plain KernelFunc)
// must run unpruned — every candidate joined.
func TestCustomKernelRunsUnpruned(t *testing.T) {
	compact := buildCompact(t, testCorpus(80, 7))
	concepts := testConcepts()
	e := New(compact, Config{})
	win := scorefn.ExpWIN{Alpha: 0.07}
	q := Query{
		Concepts: concepts,
		Join: func() join.Kernel {
			return join.KernelFunc(func(ls match.Lists) (match.Set, float64, bool) {
				return join.WIN(win, ls)
			})
		},
		K: 3,
	}
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 0 || res.Evaluated != res.Candidates {
		t.Fatalf("unbounded kernel was pruned: %+v", res)
	}
}

// TestDedupWrapperForwardsBounds pins that the dedup wrapper forwards
// a cap from its inner kernel (so Valid* joins actually prune) and stays
// sound doing it. Under WIN and MED it is the inner kernel's cap at the
// window floor of distinct locations, below the unrestricted cap and at
// least the best valid score of an instance with those maxima at
// adjacent locations; under MAX it is the unrestricted cap itself.
func TestDedupWrapperForwardsBounds(t *testing.T) {
	maxima := []float64{0.9, 0.8, 0.7}
	adjacent := match.Lists{{{Loc: 4, Score: 0.9}}, {{Loc: 5, Score: 0.8}}, {{Loc: 6, Score: 0.7}, {Loc: 5, Score: 0.2}}}
	adjacent[2].Sort()
	for _, inner := range []interface {
		join.Kernel
		join.UpperBounded
	}{
		join.NewWINKernel(scorefn.ExpWIN{Alpha: 0.07}),
		join.NewMEDKernel(scorefn.ExpMED{Alpha: 0.07}),
		join.NewMAXKernel(scorefn.SumMAX{Alpha: 0.07}),
	} {
		wrapped := dedup.Wrap(inner)
		var ub join.UpperBounded = wrapped
		for _, minMatch := range []int{0, 2} {
			got, unrestricted := ub.ScoreUpperBound(append([]float64(nil), maxima...), minMatch), inner.ScoreUpperBound(append([]float64(nil), maxima...), minMatch)
			if _, isMAX := inner.(*join.MAXKernel); isMAX && got != unrestricted || !isMAX && !(got < unrestricted) {
				t.Fatalf("%T, m=%d: dedup wrapper bound %v, inner %v", inner, minMatch, got, unrestricted)
			}
			wrapped.Reset(nil, adjacent)
			if _, score, ok := wrapped.Join(); !ok || score > got {
				t.Fatalf("%T, m=%d: best valid score %v (ok %v) above the wrapper's bound %v", inner, minMatch, score, ok, got)
			}
		}
	}
}

// tieCorpus is n templated documents holding the query words amber,
// basalt and cobalt among fillers. Half of them hold all three at
// adjacent locations, the narrowest window and the least distance to
// the median that distinct locations allow; a quarter hold amber and
// basalt so, without cobalt; the last quarter spread all three a token
// apart. Document d's fillers are its own, so no two are alike.
func tieCorpus(n int) []string {
	filler := []string{"quartz", "ribbon", "saddle", "timber", "umbrella", "violet", "walnut", "yarn"}
	docs := make([]string, n)
	for d := range docs {
		words := []string{filler[d%8], filler[d/8%8], filler[d/64%8]}
		switch d % 4 {
		case 1:
			words = append(words, "amber", "basalt")
		case 3:
			words = append(words, "amber", "yarn", "basalt", "yarn", "cobalt")
		default:
			words = append(words, "amber", "basalt", "cobalt")
		}
		docs[d] = joinWords(append(words, filler[(d+3)%8], filler[(d+5)%8]))
	}
	return docs
}

// TestDistinctCapPrunesTies pins the valid-matchset cap's window floor
// at work: on a corpus whose top k all tie at the distinct-location
// optimum, the cap of every later candidate is at most the k-th score,
// and the candidate, losing the tie on its id, prunes without a join. A
// cap at window 0 sits above that score and joins every candidate — 400
// and 300 of them in the queries below — while the floor's cap joins 18
// and 7, pinned as ceilings. Answers equal internal/refrank's, bit for
// bit.
func TestDistinctCapPrunesTies(t *testing.T) {
	const k = 5
	compact := buildCompact(t, tieCorpus(400))
	concepts := []index.Concept{{"amber": 1}, {"basalt": 1}, {"cobalt": 1}}
	for _, tc := range []struct {
		name     string
		spec     KernelSpec
		jn       KernelFactory
		mode     QueryMode
		minMatch int
		maxJoins uint64
	}{
		{"ValidMED 2-of-3", KernelSpec{Family: "med", Alpha: 0.1, Valid: true}, ValidMEDJoiner(scorefn.ExpMED{Alpha: 0.1}), ModeOR, 2, 18},
		{"ValidWIN AND", KernelSpec{Family: "win", Alpha: 0.1, Valid: true}, ValidWINJoiner(scorefn.ExpWIN{Alpha: 0.1}), ModeAND, 0, 7},
	} {
		e := New(compact, Config{Workers: 1})
		res, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: tc.spec, K: k, Mode: tc.mode, MinMatch: tc.minMatch})
		if err != nil {
			t.Fatal(err)
		}
		m := tc.minMatch
		if m == 0 {
			m = len(concepts)
		}
		want := oracle(compact, concepts, m, tc.jn, k)
		assertSameDocs(t, tc.name, res.Docs, want)
		if len(want) < k || want[k-1].Score != want[0].Score {
			t.Fatalf("%s: the top %d do not tie (%+v): the corpus tests nothing", tc.name, k, want)
		}
		if st := e.Stats(); st.JoinsRun > tc.maxJoins {
			t.Fatalf("%s: %d joins of %d candidates, want at most %d", tc.name, st.JoinsRun, res.Candidates, tc.maxJoins)
		}
	}
}
