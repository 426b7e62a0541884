package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// TestNeverPruneOnEquality engineers an exact tie between a
// candidate's score upper bound and the top-k floor and checks the
// candidate still joins. With LinearWIN{Scale: 1} (G(x) = x,
// F(gsum, w) = gsum − w) every quantity below is an integer-valued
// float, so the tie is exact, not approximate.
//
// Concepts A = {apple: 2, gold: 3} and B = {apple: 2}; K = 2; one
// worker so the schedule is deterministic.
//
//   - docs 8 and 9 are "gold pad apple": per-list maxima (3, 2) give
//     bound 5; the actual best join puts both concepts on the single
//     "apple" token (window 0) for score 4 — the bound is slack.
//   - doc 1 is "apple": maxima (2, 2) give bound 4, and the best join
//     scores exactly 4 — the bound is tight.
//
// The dispatcher visits by bound descending: 8, 9, then 1. After 8
// and 9 the heap holds {(4, 8), (4, 9)} and the floor is 4 — equal to
// doc 1's bound. Doc 1 must still be joined: it scores 4 and the
// score-then-smaller-id tie-break replaces (4, 9), so the correct
// answer is docs [1, 8]. An engine that pruned on equality (bound <=
// floor) would skip doc 1 and return [8, 9].
func TestNeverPruneOnEquality(t *testing.T) {
	docs := make([]string, 10)
	for i := range docs {
		docs[i] = "pad filler"
	}
	docs[1] = "apple"
	docs[8] = "gold pad apple"
	docs[9] = "gold pad apple"
	compact := buildCompact(t, docs)

	q := Query{
		Concepts: []index.Concept{
			{"apple": 2, "gold": 3},
			{"apple": 2},
		},
		Join: WINJoiner(scorefn.LinearWIN{Scale: 1}),
		K:    2,
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
	// bound (5) exceeds the final floor.
	if res.Evaluated != 3 || res.Pruned != 0 {
		t.Fatalf("Evaluated=%d Pruned=%d, want 3 evaluated and 0 pruned", res.Evaluated, res.Pruned)
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
// k lowest ids, and both arms arrange for those to reach the heap last,
// when it already holds k ties with larger ids and every screen is
// comparing against them. A tie lost on id prunes; these ties are won
// on id and must not.
//
//   - AND, bound-ordered dispatch: documents 10… are "gold pad apple"
//     (bound 5, score 4), 0…9 are "apple" (bound 4 = score 4), so the
//     dispatcher sends 0…9 after all the others. 0…4 must displace the
//     kept entries; 5…9 have lost the tie by then.
//   - OR over blocks: concept B's only (hence last) block holds
//     documents 0…4, which repeat their word and are joined slowly;
//     concept A's 395 documents behind them are joined by the other
//     workers meanwhile.
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
		score float64
	}{
		{"and", and, Query{Concepts: []index.Concept{{"apple": 2, "gold": 3}, {"apple": 2}}}, 4},
		{"or", or, Query{Concepts: []index.Concept{{"gold": 2}, {"apple": 2}}, Mode: ModeOR}, 2},
	}
	for _, arm := range arms {
		compact := buildCompact(t, arm.docs)
		index.SetBlockSizeForTest(compact, 8)
		q := arm.query
		q.Join, q.K = factory, k
		want, err := New(compact, Config{Workers: 8, DisablePruning: true}).Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		pruned := 0
		for trial := 0; trial < 5; trial++ {
			res, err := New(compact, Config{Workers: 8}).Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameDocs(t, arm.name, res.Docs, want.Docs)
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
// that the pruned result matches the unpruned engine exactly. Weak
// documents bound at 1 can never beat the floor of 3 set by the strong
// document, so with K = 1 all of them must be skipped without a join.
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
	unpruned := New(compact, Config{Workers: 1, DisablePruning: true})
	ru, err := unpruned.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	if len(rp.Docs) != 1 || rp.Docs[0].Doc != 0 || rp.Docs[0].Score != 3 {
		t.Fatalf("pruned result wrong: %+v", rp.Docs)
	}
	if len(ru.Docs) != 1 || ru.Docs[0].Doc != rp.Docs[0].Doc || ru.Docs[0].Score != rp.Docs[0].Score {
		t.Fatalf("pruned %+v and unpruned %+v disagree", rp.Docs, ru.Docs)
	}
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
		t.Fatalf("unpruned engine: Evaluated=%d Pruned=%d", ru.Evaluated, ru.Pruned)
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
// scores the smaller sum, and loses on score.
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
	if st := e.Stats(); st.WindowCutJoins != 2 || st.FloorCutJoins != 2 {
		t.Fatalf("WindowCutJoins=%d FloorCutJoins=%d, want 2 and 2: documents 6 and 7, nothing that ties the floor", st.WindowCutJoins, st.FloorCutJoins)
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

// TestPlanBoundsRemembersEqualMaxima: a candidate whose maxima are its
// predecessor's, bit for bit, takes the predecessor's bound without an
// evaluation; any other maxima — another order, another value, a zero
// of the other sign — are evaluated; and a panicking bound still
// disables pruning for the query.
func TestPlanBoundsRemembersEqualMaxima(t *testing.T) {
	e := New(buildCompact(t, []string{"amber"}), Config{Workers: 1})
	kern := &countingBound{}
	factory := func() join.Kernel { return kern }
	negZero := math.Copysign(0, -1)
	maxima := [][2]float64{
		{1, 0.5}, {1, 0.5}, {1, 0.5}, // remembered twice
		{0.5, 1},                 // order
		{0.5, 0.75},              // value
		{0, 0.5}, {negZero, 0.5}, // -0 is not +0
		{negZero, 0.5},
		{1, 0.5}, // only the predecessor is remembered
	}
	wantCalls := 6
	var perListMax []float64
	for _, m := range maxima {
		perListMax = append(perListMax, m[:]...)
	}
	bounds := e.planBounds(factory, make([]int, len(maxima)), perListMax, 2)
	if kern.calls != wantCalls {
		t.Fatalf("%d evaluations for %d candidates, want %d", kern.calls, len(maxima), wantCalls)
	}
	for i, m := range maxima {
		if want := m[0] + 2*m[1]; bounds[i] != want {
			t.Fatalf("candidate %d: bound %v, want %v", i, bounds[i], want)
		}
	}
	perListMax[len(perListMax)-1] = -1
	if bounds := e.planBounds(factory, make([]int, len(maxima)), perListMax, 2); bounds != nil || e.Stats().JoinPanics != 1 {
		t.Fatalf("a panicking bound: bounds %v, JoinPanics %d, want nil and 1", bounds, e.Stats().JoinPanics)
	}
}
