package engine

// Unit tests of disjunctive (ranked-union / m-of-n) retrieval: its
// edges, its equality rule and the screens it arms. TestDifferential
// (the root package) holds every mode to the reference ranker.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"bestjoin/internal/dedup"
	"bestjoin/internal/index"
	"bestjoin/internal/join"
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

// TestUnionConfigModeDefault: Config.Mode = ModeOR makes OR the
// engine-wide default, and an explicit Query.Mode = ModeAND overrides
// it back.
func TestUnionConfigModeDefault(t *testing.T) {
	c := buildCompact(t, testCorpus(60, 29))
	concepts := testConcepts()
	jn := MAXJoiner(scorefn.SumMAX{Alpha: 0.1})
	orEngine := New(c, Config{Workers: 2, Mode: ModeOR})
	andEngine := New(c, Config{Workers: 2})

	viaDefault, err := orEngine.Search(context.Background(), Query{Concepts: concepts, Join: jn, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := andEngine.Search(context.Background(), Query{Concepts: concepts, Join: jn, K: 5, Mode: ModeOR})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "config-default-or", viaDefault.Docs, explicit.Docs)

	overridden, err := orEngine.Search(context.Background(), Query{Concepts: concepts, Join: jn, K: 5, Mode: ModeAND})
	if err != nil {
		t.Fatal(err)
	}
	plainAND, err := andEngine.Search(context.Background(), Query{Concepts: concepts, Join: jn, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "query-overrides-config", overridden.Docs, plainAND.Docs)
}

// TestUnionNeverPruneOnEquality mirrors the conjunctive equality tests
// for the pivot loop: when every document scores exactly the pruning
// bound, the floor ties the bound for every later pivot, and any skip
// on equality would break the document-id tie-break order.
func TestUnionNeverPruneOnEquality(t *testing.T) {
	docs := make([]string, 12)
	for i := range docs {
		docs[i] = "amber"
	}
	concepts := []index.Concept{{"amber": 1}, {"basalt": 1}}
	e := New(buildCompact(t, docs), Config{Workers: 1})
	res, err := e.Search(context.Background(), Query{
		Concepts: concepts, Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.07}), K: 4, Mode: ModeOR,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 4 {
		t.Fatalf("got %d docs, want 4", len(res.Docs))
	}
	for i, dr := range res.Docs {
		if dr.Doc != i {
			t.Fatalf("rank %d is doc %d, want %d (tie-break by id broken)", i, dr.Doc, i)
		}
	}
	if got := e.Stats().PivotSkips; got != 0 {
		t.Fatalf("%d pivots skipped on an all-ties query", got)
	}
	assertResultInvariants(t, "equality", res)
}

// TestUnionPivotSkipsCounted pins that the union pruning machinery
// actually fires: one dominant document and k=1 must leave a trail of
// skipped pivots. SumMAX is the
// family here because it is additive — matching the heavy second
// concept strictly raises the score — whereas the product families can
// legitimately rank a partial match above a full one.
func TestUnionPivotSkipsCounted(t *testing.T) {
	// Sizing makes the skip deterministic rather than scheduler-luck:
	// QueueDepth 1 with one worker gives an unbuffered job channel, so
	// shipping the second 32-job chunk cannot return before the worker
	// finished the first (which contains the dominant doc 0 and raises
	// the floor), and every pivot after the next stride-32 floor
	// refresh — guaranteed to exist with 200 documents — must skip.
	docs := make([]string, 200)
	for i := range docs {
		docs[i] = "amber cedar"
	}
	docs[0] = "amber basalt" // the only doc with the heavy second concept
	concepts := []index.Concept{{"amber": 0.1}, {"basalt": 1}}
	e := New(buildCompact(t, docs), Config{Workers: 1, QueueDepth: 1})
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
// answers stay the unpruned engine's. Three documents hold every
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
				want, err := New(compact, Config{Workers: 1, DisablePruning: true}).Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s valid %v m %d", family, valid, minMatch)
				assertSameDocs(t, label, got.Docs, want.Docs)
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
// UnionUnpruned, and answers as the unpruned engine does.
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
		want, err := New(compact, Config{Workers: workers, DisablePruning: true}).Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers %d", workers)
		assertSameDocs(t, label, got.Docs, want.Docs)
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
// only screen is that cap still prunes at K = 1, and it answers as the
// unpruned engine does.
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
				want, err := New(compact, Config{Workers: 1, DisablePruning: true}).Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("cap only %v, K %d, MinMatch %d", bare, k, minMatch)
				assertIdentical(t, label, got, want)
				if st := e.Stats(); st.UnionUnpruned != 0 || got.Pruned < pinned[bare][i] || k == 1 && got.Pruned == 0 {
					t.Fatalf("%s: UnionUnpruned %d, %d of %d candidates pruned, want 0 and at least %d (and some)",
						label, st.UnionUnpruned, got.Pruned, got.Candidates, pinned[bare][i])
				}
			}
		}
	}
}
