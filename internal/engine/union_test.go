package engine

// Unit tests of disjunctive (ranked-union / m-of-n) retrieval: its
// edges, its equality rule and the screens it arms. TestDifferential
// (the root package) holds every mode to the reference ranker.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bestjoin/internal/dedup"
	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// TestUnionUnknownConceptDegradesToSurvivors pins the headline OR
// semantics: a query naming one concept absent from the corpus must
// rank by the surviving concepts — identical to the same query without
// the unknown term — not return empty (the conjunctive behavior) and
// not report Degraded (nothing failed; the term simply has no
// postings).
func TestUnionUnknownConceptDegradesToSurvivors(t *testing.T) {
	c := buildCompact(t, testCorpus(80, 13))
	jn := WINJoiner(scorefn.ExpWIN{Alpha: 0.1})
	known := []index.Concept{
		{"lenovo": 1, "dell": 0.9, "hewlett": 0.8},
		{"nba": 1, "olympics": 0.9},
	}
	unknown := index.Concept{"xylophone": 1, "glockenspiel": 0.5}
	e := New(c, Config{Workers: 2})

	or, err := e.Search(context.Background(), Query{
		Concepts: append(append([]index.Concept{}, known...), unknown),
		Join:     jn, K: 5, Mode: ModeOR,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Search(context.Background(), Query{Concepts: known, Join: jn, K: 5, Mode: ModeOR})
	if err != nil {
		t.Fatal(err)
	}
	if len(or.Docs) == 0 {
		t.Fatal("union query with one unknown concept returned nothing")
	}
	if or.Degraded {
		t.Fatal("an absent concept is not a failure: Degraded must stay false")
	}
	assertSameDocs(t, "unknown-among-known", or.Docs, want.Docs)
	assertResultInvariants(t, "unknown-among-known", or)

	// Contrast: the conjunctive mode on the same concepts finds no
	// document containing the unknown term.
	and, err := e.Search(context.Background(), Query{
		Concepts: append(append([]index.Concept{}, known...), unknown),
		Join:     jn, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(and.Docs) != 0 {
		t.Fatalf("conjunctive query with an unknown concept returned %d docs", len(and.Docs))
	}
}

// TestUnionAllConceptsUnknown: nothing survives, so the answer is
// empty, complete, and healthy.
func TestUnionAllConceptsUnknown(t *testing.T) {
	c := buildCompact(t, testCorpus(40, 17))
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	e := New(c, Config{})
	res, err := e.Search(context.Background(), Query{
		Concepts: []index.Concept{{"xylophone": 1}, {"glockenspiel": 1}},
		Join:     jn, K: 5, Mode: ModeOR,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 0 || res.Partial || res.Degraded || res.Candidates != 0 {
		t.Fatalf("all-unknown union: %+v, want empty complete healthy", res)
	}
	assertResultInvariants(t, "all-unknown", res)
}

// TestUnionSingleConceptMatchesAND: with one concept, OR and AND are
// the same query; the ranked answers must agree bit for bit.
func TestUnionSingleConceptMatchesAND(t *testing.T) {
	c := buildCompact(t, testCorpus(90, 19))
	concepts := []index.Concept{{"lenovo": 1, "dell": 0.9, "hewlett": 0.8}}
	for _, spec := range []KernelSpec{{Family: "win", Alpha: 0.07}, {Family: "med", Alpha: 0.05, Valid: true}, {Family: "max", Alpha: 0.1}} {
		e := New(c, Config{Workers: 4})
		and, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, K: 6})
		if err != nil {
			t.Fatal(err)
		}
		or, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, K: 6, Mode: ModeOR})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("single-concept %+v", spec)
		assertSameDocs(t, label, or.Docs, and.Docs)
		assertResultInvariants(t, label, or)
	}
}

// TestUnionMinMatchBoundaries pins the m-of-n edges: MinMatch = n must
// be the conjunctive answer — the reference ranking of the documents
// holding every concept, as a default AND query is — and MinMatch = 1
// must be plain OR.
func TestUnionMinMatchBoundaries(t *testing.T) {
	c := buildCompact(t, testCorpus(100, 23))
	concepts := testConcepts()
	n := len(concepts)
	for _, spec := range []KernelSpec{{Family: "win", Alpha: 0.07, Valid: true}, {Family: "med", Alpha: 0.05}, {Family: "max", Alpha: 0.1, Valid: true}} {
		e := New(c, Config{Workers: 4})
		and, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		viaUnion, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, K: 5, MinMatch: n})
		if err != nil {
			t.Fatal(err)
		}
		factory, _ := spec.Factory()
		want := oracle(c, concepts, n, factory, 5)
		label := fmt.Sprintf("%+v", spec)
		assertSameDocs(t, "AND "+label, and.Docs, want)
		assertSameDocs(t, "m=n "+label, viaUnion.Docs, want)
		if viaUnion.Partial || and.Partial {
			t.Fatalf("m=n %s: Partial %v, AND Partial %v", label, viaUnion.Partial, and.Partial)
		}

		or, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, K: 5, Mode: ModeOR})
		if err != nil {
			t.Fatal(err)
		}
		m1, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, K: 5, Mode: ModeOR, MinMatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDocs(t, "m=1 "+label, m1.Docs, or.Docs)
	}
	// Out-of-range MinMatch values are errors, not silent clamps.
	e := New(c, Config{})
	spec := KernelSpec{Family: "win", Alpha: 0.07}
	if _, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, MinMatch: n + 1}); err == nil {
		t.Fatal("MinMatch > n accepted")
	}
	if _, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: spec, MinMatch: -1}); err == nil {
		t.Fatal("negative MinMatch accepted")
	}
}

// TestUnknownQueryModeRefused pins that a mode other than ModeAND and
// ModeOR is an error, like an out-of-range MinMatch, and not run as
// AND: the remote tier cannot encode such a mode, so a fleet refuses
// it too, and one engine must answer as the fleet does.
func TestUnknownQueryModeRefused(t *testing.T) {
	e := New(buildCompact(t, testCorpus(40, 3)), Config{})
	spec := KernelSpec{Family: "med", Alpha: 0.1, Valid: true}
	for _, mode := range []QueryMode{QueryMode(7), QueryMode(-1), ModeOR + 1} {
		_, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Spec: spec, Mode: mode})
		if err == nil || !strings.Contains(err.Error(), "unknown query mode") {
			t.Fatalf("mode %d: err %v, want an unknown-mode error", mode, err)
		}
	}
	if q := e.Stats().Queries; q != 0 {
		t.Fatalf("refused queries counted: Queries %d", q)
	}
}

// TestUnionNeverPruneOnEquality mirrors the conjunctive equality tests
// for the pivot loop: when every document scores exactly the pruning
// bound, the floor ties the bound for every later pivot, and a skip on
// equality would break the document-id tie-break order. Document i
// holds its word at location i, so idProbe reads each joined
// document's id: every document up to the 4th kept one is joined, at
// any worker count. One walker, its floor fresh after each offer,
// skips pivot 4 — it lost its tie on id — and with it the rest.
func TestUnionNeverPruneOnEquality(t *testing.T) {
	docs := make([]string, 12)
	for i := range docs {
		docs[i] = strings.Repeat("quartz ", i) + "amber"
	}
	concepts := []index.Concept{{"amber": 1}, {"basalt": 1}}
	for _, workers := range []int{1, 4} {
		var joined idProbeLog
		e := New(buildCompact(t, docs), Config{Workers: workers})
		res, err := e.Search(context.Background(), Query{
			Concepts: concepts, Join: idProbeFactory(&joined), K: 4, Mode: ModeOR,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("equality, %d workers", workers)
		if len(res.Docs) != 4 {
			t.Fatalf("%s: got %d docs, want 4", label, len(res.Docs))
		}
		for i, dr := range res.Docs {
			if dr.Doc != i {
				t.Fatalf("%s: rank %d is doc %d, want %d (tie-break by id broken)", label, i, dr.Doc, i)
			}
		}
		ids := joined.ids()
		for d := 0; d <= res.Docs[3].Doc; d++ {
			if !ids[d] {
				t.Fatalf("%s: doc %d, which wins its tie with the 4th kept doc, was not joined (joined %v)", label, d, ids)
			}
		}
		if st := e.Stats(); workers == 1 && (st.PivotSkips != 1 || res.Pruned != 1 || res.Evaluated != 4) {
			t.Fatalf("%s: %d pivot skips, %d pruned, %d evaluated; want 1, 1 and 4", label, st.PivotSkips, res.Pruned, res.Evaluated)
		}
		assertResultInvariants(t, label, res)
	}
}

// TestUnionPivotSkipsCounted pins that the union pruning machinery
// actually fires: one dominant document and k=1 must leave a trail of
// skipped pivots. SumMAX is the
// family here because it is additive — matching the heavy second
// concept strictly raises the score — whereas the product families can
// legitimately rank a partial match above a full one.
func TestUnionPivotSkipsCounted(t *testing.T) {
	// Sizing makes the skip deterministic rather than scheduler-luck:
	// one worker gets a job channel of two chunks, so shipping the
	// fourth 32-job chunk cannot return before the worker took the
	// second, having finished the first (which contains the dominant
	// doc 0 and raises the floor), and every pivot after the next
	// stride-32 floor refresh — guaranteed to exist with 200 documents
	// — must skip.
	docs := make([]string, 200)
	for i := range docs {
		docs[i] = "amber cedar"
	}
	docs[0] = "amber basalt" // the only doc with the heavy second concept
	concepts := []index.Concept{{"amber": 0.1}, {"basalt": 1}}
	e := New(buildCompact(t, docs), Config{Workers: 1})
	res, err := e.Search(context.Background(), Query{
		Concepts: concepts, Join: MAXJoiner(scorefn.SumMAX{Alpha: 0.1}), K: 1, Mode: ModeOR,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs[0].Doc != 0 {
		t.Fatalf("top doc %d, want 0", res.Docs[0].Doc)
	}
	if st := e.Stats(); st.PivotSkips == 0 {
		t.Fatalf("no pivot skips on a skewed corpus (pruned=%d)", res.Pruned)
	}
	assertResultInvariants(t, "skew", res)
}

// TestUnionArmsWindowScreen pins the kernel floors' scope: a
// disjunctive query — plain OR and m-of-n — arms the WIN/MED window
// screen, and the cache rung ahead of it, exactly as a conjunctive one
// does, for the valid-matchset wrapper and for a bare kernel, and the
// answers stay internal/refrank's. Three documents hold every
// concept adjacent and set the floor; after them come documents whose
// three terms sit a few tokens apart inside one 8-position bucket —
// too wide to reach the floor, which only the exact screen can see —
// and documents whose terms sit buckets apart, which the rung prunes
// before their join.
func TestUnionArmsWindowScreen(t *testing.T) {
	docs := []string{"lenovo nba partnership", "partnership nba lenovo", "nba lenovo partnership"}
	far := strings.Repeat(" quartz", 20)
	for i := 0; i < 20; i++ {
		docs = append(docs, "lenovo quartz quartz nba quartz quartz partnership", "lenovo"+far+" nba"+far+" partnership")
	}
	compact := buildCompact(t, docs)
	for _, family := range []string{"win", "med"} {
		for _, valid := range []bool{true, false} {
			for _, minMatch := range []int{0, 2} {
				var rungCuts atomic.Int64
				factory := func() join.Kernel {
					var inner probedKernel = join.NewWINKernel(scorefn.ExpWIN{Alpha: 0.1})
					if family == "med" {
						inner = join.NewMEDKernel(scorefn.ExpMED{Alpha: 0.1})
					}
					var k join.Kernel = rungProbe{inner, &rungCuts}
					if valid {
						k = dedup.Wrap(k)
					}
					return k
				}
				q := Query{Concepts: overlapConcepts(), Join: factory, K: 3, Mode: ModeOR, MinMatch: minMatch}
				e := New(compact, Config{Workers: 1})
				got, err := e.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s valid %v m %d", family, valid, minMatch)
				assertSameDocs(t, label, got.Docs, oracle(compact, q.Concepts, max(minMatch, 1), factory, q.K))
				st := e.Stats()
				if st.WindowCutJoins == 0 || st.WindowCutJoins > st.FloorCutJoins {
					t.Errorf("%s: %d window cuts, %d floor cuts of %d joins", label, st.WindowCutJoins, st.FloorCutJoins, st.JoinsRun)
				}
				if cuts := uint64(rungCuts.Load()); cuts == 0 || cuts > st.PrunedDocs || st.JoinsRun+st.PrunedDocs != uint64(got.Candidates) {
					t.Errorf("%s: %d rung cuts, %d pruned and %d joined of %d candidates", label, cuts, st.PrunedDocs, st.JoinsRun, got.Candidates)
				}
			}
		}
	}
}

// probedKernel is a kernel with a window screen and a score cap.
type probedKernel interface {
	join.Kernel
	join.Floored
	join.UpperBounded
}

// rungProbe counts the documents the engine's cache rung prunes: it
// answers CutWidth as its kernel does, and tallies the answers the
// signatures then turn into a cut.
type rungProbe struct {
	probedKernel
	cuts *atomic.Int64
}

func (p rungProbe) CutWidth(sigs []join.Sig, bar float64) (int, bool) {
	w, ok := p.probedKernel.CutWidth(sigs, bar)
	if ok && join.Apart(sigs, w) {
		p.cuts.Add(1)
	}
	return w, ok
}

// TestUnionBounderRemembersLastAnswer: bit-identical arguments return
// the previous bound without an evaluation; any other arguments — a
// different maximum, order, length, minMatch, or zero of the other sign
// — evaluate; and a panicking bound fails the bounder as before, with
// nothing remembered.
func TestUnionBounderRemembersLastAnswer(t *testing.T) {
	var tally Tally
	kern := &countingBound{}
	b := &bounder{t: &tally, ub: kern}
	negZero := math.Copysign(0, -1)
	steps := []struct {
		maxima   []float64
		minMatch int
		want     float64
		calls    int
	}{
		{[]float64{1, 0.5}, 1, 3, 1},
		{[]float64{1, 0.5}, 1, 3, 1}, // remembered
		{[]float64{1, 0.5}, 1, 3, 1},
		{[]float64{0.5, 1}, 1, 3.5, 2}, // order
		{[]float64{0.5, 1}, 2, 4.5, 3}, // minMatch
		{[]float64{0.5}, 2, 2.5, 4},    // length
		{[]float64{0}, 2, 2, 5},
		{[]float64{negZero}, 2, 2, 6}, // -0 is not +0
		{[]float64{negZero}, 2, 2, 6},
	}
	for i, st := range steps {
		scratch := append([]float64(nil), st.maxima...)
		if got := b.bound(scratch, st.minMatch); got != st.want || kern.calls != st.calls || b.failed {
			t.Fatalf("step %d: bound %v after %d evaluations (failed %v), want %v after %d", i, got, kern.calls, b.failed, st.want, st.calls)
		}
	}
	scratch := make([]float64, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		for _, m := range []float64{negZero, negZero, 1} {
			scratch[0] = m
			b.bound(scratch, 2)
		}
	}); allocs != 0 {
		t.Fatalf("bound allocates %v per hit and miss", allocs)
	}
	if got := b.bound([]float64{-1}, 2); !math.IsInf(got, 1) || !b.failed || tally.JoinPanics != 1 {
		t.Fatalf("panicking bound: %v, failed %v, %d panics counted", got, b.failed, tally.JoinPanics)
	}
	calls := kern.calls
	if got := b.bound([]float64{-1}, 2); !math.IsInf(got, 1) || kern.calls != calls+1 {
		t.Fatalf("a panicked evaluation was remembered: %v after %d more evaluations", got, kern.calls-calls)
	}
}

// TestWeightedUnionRunsUnpruned: a term-weighted scoring function has no
// disjunctive cap. The sorted-prefix cap evaluates g by sorted position,
// which is sound only when g_j does not depend on j: here it weighed
// amber's 0.2 by basalt's 2 and basalt's 1 by amber's 0.5, capping
// document 1 (209) at 90 — below document 0's 159, so the pruned union
// answered document 0. Such a query runs exhaustively from its first
// pivot matching more than m concepts (here the first), counted in
// UnionUnpruned, and answers as internal/refrank ranks.
func TestWeightedUnionRunsUnpruned(t *testing.T) {
	compact := buildCompact(t, []string{"amber" + strings.Repeat(" lumen", 50) + " basalt", "amber basalt"})
	fn := scorefn.WeightedWIN{Base: scorefn.LinearWIN{Scale: 0.01}, Weights: []float64{0.5, 2}}
	q := Query{Concepts: []index.Concept{{"amber": 0.2}, {"basalt": 1}}, Join: WINJoiner(fn), K: 1, Mode: ModeOR}
	for _, workers := range []int{1, 4} {
		e := New(compact, Config{Workers: workers})
		got, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers %d", workers)
		assertSameDocs(t, label, got.Docs, oracle(compact, q.Concepts, 1, q.Join, q.K))
		if got.Docs[0].Doc != 1 || e.Stats().UnionUnpruned != 1 {
			t.Fatalf("%s: top doc %d, UnionUnpruned %d, want doc 1 and 1", label, got.Docs[0].Doc, e.Stats().UnionUnpruned)
		}
	}
}

// capOnly is a kernel whose only screen is its score cap: no window
// screen, no cache rung, so whatever it prunes the list-max rung did.
type capOnly struct {
	join.Kernel
	join.UpperBounded
}

// TestWeightedANDKeepsItsCap: a term-weighted scoring function has a
// conjunctive cap but no disjunctive one (scorefn.ListMaxCap). An AND
// query — by default or by MinMatch = n — runs the candidate walk at
// m = n, where every candidate matches every concept, so it takes the
// conjunctive cap: it is not counted in UnionUnpruned, a kernel whose
// only screen is that cap still prunes at K = 1, and it answers as
// internal/refrank ranks.
//
// The pruned counts at K = 1, 3, 5, 10 are pinned as lower bounds, as
// measured when this walk replaced the conjunctive path (one worker,
// 64 candidates), so a weaker cap or a later floor cannot go
// unnoticed. That path, which sorted every candidate by its cap before
// joining any, pruned more: 58 / 46 / 39 / 31 with the served kernel,
// 33 / 10 / 3 / 0 with the cap alone.
func TestWeightedANDKeepsItsCap(t *testing.T) {
	compact := buildCompact(t, testCorpus(400, 12))
	fn := scorefn.WeightedWIN{Base: scorefn.ExpWIN{Alpha: 0.07}, Weights: []float64{0.5, 2, 1}}
	ks := []int{1, 3, 5, 10}
	pinned := map[bool][]int{false: {52, 43, 36, 25}, true: {10, 1, 0, 0}}
	for _, bare := range []bool{false, true} {
		factory := func() join.Kernel {
			k := join.NewWINKernel(fn)
			if bare {
				return capOnly{k, k}
			}
			return k
		}
		for i, k := range ks {
			for _, minMatch := range []int{0, 3} {
				q := Query{Concepts: testConcepts(), Join: factory, K: k, MinMatch: minMatch}
				e := New(compact, Config{Workers: 1})
				got, err := e.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("cap only %v, K %d, MinMatch %d", bare, k, minMatch)
				assertIdentical(t, label, got, &Result{Docs: oracle(compact, q.Concepts, 3, factory, k)})
				if st := e.Stats(); st.UnionUnpruned != 0 || got.Pruned < pinned[bare][i] || k == 1 && got.Pruned == 0 {
					t.Fatalf("%s: UnionUnpruned %d, %d of %d candidates pruned, want 0 and at least %d (and some)",
						label, st.UnionUnpruned, got.Pruned, got.Candidates, pinned[bare][i])
				}
			}
		}
	}
}

// TestConjunctiveCapSkipsPivot: a 2-of-3 pivot matching all three
// concepts is joined over all three lists, so the conjunctive cap over
// exactly those lists bounds it, and under the valid-matchset MED
// kernel that cap sits below the disjunctive one (three distinct
// locations are at least 2 from their median, two at least 1). Five
// documents hold amber next to beryl (0.95) and fill the heap at
// 0.95·F(−1); every fourth document after them holds all three words at
// adjacent locations, F(−2) under a disjunctive cap of F(−1) — a pivot
// only the conjunctive cap skips. One walker joins none of them, and
// the answers are internal/refrank's. The walk that took the
// disjunctive cap alone joined all 45 documents and skipped none.
func TestConjunctiveCapSkipsPivot(t *testing.T) {
	docs := []string{"amber beryl", "beryl amber", "quartz amber beryl", "amber beryl quartz", "ribbon beryl amber"}
	for i := 0; i < 40; i++ {
		docs = append(docs, []string{
			"amber basalt cedar",               // all three adjacent: F(−2)
			"amber quartz basalt",              // two, 2 apart: F(−2)
			"cedar beryl",                      // ties the 5th kept, loses on id
			"amber quartz quartz quartz cedar", // two, 4 apart
		}[i%4])
	}
	compact := buildCompact(t, docs)
	concepts := []index.Concept{{"amber": 1}, {"basalt": 1, "beryl": 0.95}, {"cedar": 1}}
	fn := scorefn.ExpMED{Alpha: 0.1}
	var wide atomic.Int64
	factory := func() join.Kernel { return dedup.Wrap(widthProbe{join.NewMEDKernel(fn), &wide}) }
	e := New(compact, Config{Workers: 1})
	res, err := e.Search(context.Background(), Query{Concepts: concepts, Join: factory, K: 5, Mode: ModeOR, MinMatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "2 of 3", res.Docs, oracle(compact, concepts, 2, ValidMEDJoiner(fn), 5))
	assertResultInvariants(t, "2 of 3", res)
	st := e.Stats()
	if n := wide.Load(); n != 0 {
		t.Fatalf("%d joins over all three lists; every such pivot's conjunctive cap is under the floor", n)
	}
	if st.JoinsRun != 35 || st.PivotSkips != 10 {
		t.Fatalf("JoinsRun %d, PivotSkips %d; want 35 joins and the 10 three-word pivots skipped", st.JoinsRun, st.PivotSkips)
	}
}

// TestConjunctiveCapTiesItsBar: a pivot that matches more concepts
// than m is joined over all of them, and when the conjunctive cap over
// exactly those lists equals its bar and the pivot wins the tie on id,
// it must be joined, not skipped. LinearWIN (G(x) = x, F = gsum − w)
// keeps every quantity an exact dyadic float: A = {apple: 4, gold: 4}
// and B = {apple: −0.5}, 1 of 2, K = 2, one walker, and a shared floor
// raised to 3.5 (its entry's id is MaxInt, so every document wins a tie
// on id).
//
//   - doc 2 is "apple", in both lists at one location: its disjunctive
//     cap is 4 (A alone), its conjunctive cap over both lists
//     4 − 0.5 = 3.5, the bar — and its join scores exactly 3.5;
//   - doc 5 is "gold": A alone, bound and score 4.
//
// The answer is internal/refrank's, [5, 2]. An engine whose
// conjunctive cap pruned a bound equal to the bar would skip doc 2.
func TestConjunctiveCapTiesItsBar(t *testing.T) {
	docs := make([]string, 8)
	for i := range docs {
		docs[i] = "pad filler"
	}
	docs[2] = "apple"
	docs[5] = "gold"
	compact := buildCompact(t, docs)
	concepts := []index.Concept{{"apple": 4, "gold": 4}, {"apple": -0.5}}
	jn := WINJoiner(scorefn.LinearWIN{Scale: 1})
	want := oracle(compact, concepts, 1, jn, 2)
	if len(want) != 2 || want[0].Doc != 5 || want[1].Doc != 2 || want[1].Score != 3.5 {
		t.Fatalf("reference %+v, want docs [5, 2] with doc 2 at 3.5", want)
	}
	floor := NewGlobalFloor()
	floor.Raise(3.5)
	e := New(compact, Config{Workers: 1})
	res, err := e.Search(context.Background(), Query{Concepts: concepts, Join: jn, K: 2, Mode: ModeOR, Floor: floor})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "conjunctive tie", res.Docs, want)
	assertResultInvariants(t, "conjunctive tie", res)
	if st := e.Stats(); st.PivotSkips != 0 || st.JoinsRun != 2 {
		t.Fatalf("PivotSkips %d, JoinsRun %d; want both pivots joined", st.PivotSkips, st.JoinsRun)
	}
}

// widthProbe counts the instances of three or more lists its MED
// kernel is loaded with, keeping the kernel's caps, the valid-matchset
// one among them, and its window screen.
type widthProbe struct {
	*join.MEDKernel
	wide *atomic.Int64
}

func (p widthProbe) Reset(fn any, lists match.Lists) {
	if len(lists) >= 3 {
		p.wide.Add(1)
	}
	p.MEDKernel.Reset(fn, lists)
}

// TestWalkerTiesAcrossRanges: far more than 2K documents tie at the
// k-th score, two of them on either side of every boundary between the
// walkers' id ranges at 2, 4 and 8 workers. Whichever walker fills the
// heap first, a walker in a lower range must still admit its
// smaller-id ties, so every shape answers internal/refrank's ranking
// bitwise, the K smallest tied ids in id order.
func TestWalkerTiesAcrossRanges(t *testing.T) {
	const n, k = 600, 10
	tied := map[int]bool{}
	for _, workers := range []int{2, 4, 8} {
		nranges := workers * rangesPerWalker
		width := (n + nranges - 1) / nranges
		for b := width; b < n; b += width {
			tied[b-1], tied[b] = true, true
		}
	}
	docs := make([]string, n)
	var ids []int
	for i := range docs {
		switch {
		case tied[i]:
			docs[i] = "quartz amber basalt ribbon"
			ids = append(ids, i)
		case i%3 == 0:
			docs[i] = "amber quartz basalt"
		default:
			docs[i] = "basalt ribbon ribbon ribbon amber quartz"
		}
	}
	if len(ids) < 2*k {
		t.Fatalf("%d tied documents, want at least %d", len(ids), 2*k)
	}
	compact := buildCompact(t, docs)
	concepts := []index.Concept{{"amber": 1}, {"basalt": 1}}
	for _, spec := range []KernelSpec{{Family: "win", Alpha: 0.1, Valid: true}, {Family: "med", Alpha: 0.1}} {
		factory, err := spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []QueryMode{ModeAND, ModeOR} {
			m := len(concepts)
			if mode == ModeOR {
				m = 1
			}
			want := oracle(compact, concepts, m, factory, k)
			for i, dr := range want {
				if dr.Doc != ids[i] || dr.Score != want[0].Score {
					t.Fatalf("%v mode %d: reference rank %d is doc %d at %v, want tied doc %d", spec, mode, i, dr.Doc, dr.Score, ids[i])
				}
			}
			for _, workers := range []int{2, 4, 8} {
				e := New(compact, Config{Workers: workers})
				res, err := e.Search(context.Background(), Query{Concepts: concepts, Join: factory, K: k, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v mode %d, %d workers", spec, mode, workers)
				assertSameDocs(t, label, res.Docs, want)
				assertResultInvariants(t, label, res)
			}
		}
	}
}

// TestWalkerDeadlineMidRange: a deadline fires while every walker is
// inside a join, in the middle of its first range. The query comes
// back Partial, and every helper walker has exited by the time Search
// returns.
func TestWalkerDeadlineMidRange(t *testing.T) {
	compact := buildCompact(t, testCorpus(2000, 5))
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var joining, most atomic.Int64
	factory := func() join.Kernel {
		k := join.NewMEDKernel(scorefn.ExpMED{Alpha: 0.1})
		return join.KernelFunc(func(ls match.Lists) (match.Set, float64, bool) {
			now := joining.Add(1)
			for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
			}
			<-ctx.Done()
			joining.Add(-1)
			k.Reset(nil, ls)
			return k.Join()
		})
	}
	e := New(compact, Config{Workers: 4})
	res, err := e.Search(ctx, Query{Concepts: testConcepts(), Join: factory, K: 5, Mode: ModeOR})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("a deadline mid-walk: not Partial, %d of %d candidates evaluated", res.Evaluated, res.Candidates)
	}
	assertResultInvariants(t, "deadline", res)
	if most.Load() < 2 {
		t.Fatalf("at most %d walkers joined at once; the helpers never ran", most.Load())
	}
	// A helper exits right after it signals the WaitGroup Search waits
	// on, so it may be counted a moment longer.
	for limit := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(limit) {
			t.Fatalf("%d goroutines after the query, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
