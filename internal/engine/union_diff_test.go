package engine

// Differential harness for disjunctive (ranked-union / m-of-n)
// retrieval: WAND pivot skipping is supposed to be invisible — the
// only observable difference between the pruned union path and the
// exhaustive ranked union is how many pivots were bounded away. This
// property test builds random corpora and random queries and asserts
// the pruned engine's output — document ids, scores (bit for bit),
// matchsets, tie-break order, and the Partial flag — is identical to
// the unpruned engine's AND to an independent exhaustive baseline,
// across all scoring families, with and without duplicate avoidance,
// one and several workers, every minMatch in [1, n], and block tables
// built at three block sizes.
// scripts/check.sh runs it under -race.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"bestjoin/internal/dedup"
	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// bruteForceUnion ranks every document matching at least minMatch
// concepts by re-deriving its lists from the compacted index and
// joining only the matched (non-empty) lists, compacted in concept
// order — the independent exhaustive ranked-union reference the WAND
// path must agree with bit for bit.
func bruteForceUnion(c *index.Compact, concepts []index.Concept, jn KernelFactory, k, minMatch int) []DocResult {
	var out []DocResult
	kern := jn()
	for d := 0; d < c.Docs(); d++ {
		lists := c.QueryLists(d, concepts)
		sub := make(match.Lists, 0, len(lists))
		for _, l := range lists {
			if len(l) > 0 {
				sub = append(sub, l)
			}
		}
		if len(sub) < minMatch {
			continue
		}
		kern.Reset(nil, sub)
		set, score, ok := kern.Join()
		if ok && !math.IsNaN(score) {
			out = append(out, DocResult{Doc: d, Score: score, Set: set.Clone()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// assertUnionIdentical is assertIdentical minus the Candidates
// comparison: the WAND walk legitimately confirms fewer pivots than
// the exhaustive union enumerates (block jumps skip documents without
// ever establishing membership), so only the observable answer —
// docs, scores, matchsets, order, Partial — must match.
func assertUnionIdentical(t *testing.T, label string, pruned, unpruned *Result) {
	t.Helper()
	if pruned.Partial != unpruned.Partial {
		t.Fatalf("%s: Partial %v (pruned) vs %v (unpruned)", label, pruned.Partial, unpruned.Partial)
	}
	assertSameDocs(t, label, pruned.Docs, unpruned.Docs)
}

// assertSameDocs compares two rankings bit for bit.
func assertSameDocs(t *testing.T, label string, got, want []DocResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d docs, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Doc != w.Doc {
			t.Fatalf("%s: rank %d doc %d, want %d\ngot:  %+v\nwant: %+v", label, i, g.Doc, w.Doc, got, want)
		}
		if g.Score != w.Score {
			t.Fatalf("%s: rank %d (doc %d) score %v, want %v", label, i, g.Doc, g.Score, w.Score)
		}
		if len(g.Set) != len(w.Set) {
			t.Fatalf("%s: rank %d (doc %d) matchset sizes %d vs %d", label, i, g.Doc, len(g.Set), len(w.Set))
		}
		for j := range g.Set {
			if g.Set[j] != w.Set[j] {
				t.Fatalf("%s: rank %d (doc %d) matchset %v, want %v", label, i, g.Doc, g.Set, w.Set)
			}
		}
	}
}

func TestDifferentialUnionWANDVsExhaustive(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(6000 + int64(trial)))
		corpus := diffCorpus(rng)
		concepts := diffConcepts(rng)
		idx := buildCompact(t, corpus)
		// Rotate how the concepts' block tables reach the engine.
		layout := diffLayouts()[trial%len(diffLayouts())]
		layout.apply(idx)
		k := 1 + rng.Intn(6)
		for minMatch := 1; minMatch <= len(concepts); minMatch++ {
			for _, workers := range []int{1, 4} {
				for _, fam := range diffFamilies() {
					pruned := New(idx, Config{Workers: workers})
					unpruned := New(idx, Config{Workers: workers, DisablePruning: true})
					q := Query{Concepts: concepts, Join: fam.factory, K: k, Mode: ModeOR, MinMatch: minMatch}
					rp, err := pruned.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					ru, err := unpruned.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("trial %d %s workers=%d k=%d m=%d %s",
						trial, fam.name, workers, k, minMatch, layout.name)
					assertResultInvariants(t, label+" pruned", rp)
					assertResultInvariants(t, label+" unpruned", ru)
					assertUnionIdentical(t, label, rp, ru)
					want := bruteForceUnion(idx, concepts, fam.factory, k, minMatch)
					assertSameDocs(t, label+" vs baseline", rp.Docs, want)
					// The exhaustive union confirms every qualifying
					// document; the WAND walk never confirms more.
					if ru.Candidates > 0 && rp.Candidates > ru.Candidates {
						t.Fatalf("%s: pruned confirmed %d pivots, exhaustive %d", label, rp.Candidates, ru.Candidates)
					}
					st := pruned.Stats()
					if st.UnionCandidates != uint64(rp.Candidates) {
						t.Fatalf("%s: stats UnionCandidates %d != Result.Candidates %d",
							label, st.UnionCandidates, rp.Candidates)
					}
					if up := unpruned.Stats().PivotSkips; up != 0 {
						t.Fatalf("%s: unpruned engine skipped %d pivots", label, up)
					}
					// Repeat on warm caches: identical again.
					rp2, err := pruned.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					assertUnionIdentical(t, label+" cached", rp2, ru)
				}
			}
		}
	}
}

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
	for _, fam := range diffFamilies() {
		e := New(c, Config{Workers: 4})
		and, err := e.Search(context.Background(), Query{Concepts: concepts, Join: fam.factory, K: 6})
		if err != nil {
			t.Fatal(err)
		}
		or, err := e.Search(context.Background(), Query{Concepts: concepts, Join: fam.factory, K: 6, Mode: ModeOR})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDocs(t, "single-concept "+fam.name, or.Docs, and.Docs)
		assertResultInvariants(t, "single-concept "+fam.name, or)
	}
}

// TestUnionMinMatchBoundaries pins the m-of-n edges: MinMatch = n must
// reproduce the conjunctive answer exactly (AND evaluated by ranked
// union), and MinMatch = 1 must be plain OR.
func TestUnionMinMatchBoundaries(t *testing.T) {
	c := buildCompact(t, testCorpus(100, 23))
	concepts := testConcepts()
	n := len(concepts)
	for _, fam := range diffFamilies() {
		e := New(c, Config{Workers: 4})
		and, err := e.Search(context.Background(), Query{Concepts: concepts, Join: fam.factory, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		viaUnion, err := e.Search(context.Background(), Query{Concepts: concepts, Join: fam.factory, K: 5, MinMatch: n})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDocs(t, "m=n "+fam.name, viaUnion.Docs, and.Docs)
		if viaUnion.Partial != and.Partial {
			t.Fatalf("m=n %s: Partial %v vs %v", fam.name, viaUnion.Partial, and.Partial)
		}

		or, err := e.Search(context.Background(), Query{Concepts: concepts, Join: fam.factory, K: 5, Mode: ModeOR})
		if err != nil {
			t.Fatal(err)
		}
		m1, err := e.Search(context.Background(), Query{Concepts: concepts, Join: fam.factory, K: 5, Mode: ModeOR, MinMatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDocs(t, "m=1 "+fam.name, m1.Docs, or.Docs)
	}
	// Out-of-range MinMatch values are errors, not silent clamps.
	e := New(c, Config{})
	if _, err := e.Search(context.Background(), Query{Concepts: concepts, Join: diffFamilies()[0].factory, MinMatch: n + 1}); err == nil {
		t.Fatal("MinMatch > n accepted")
	}
	if _, err := e.Search(context.Background(), Query{Concepts: concepts, Join: diffFamilies()[0].factory, MinMatch: -1}); err == nil {
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
	for _, blocked := range []bool{false, true} {
		compact := buildCompact(t, docs)
		if blocked {
			index.SetBlockSizeForTest(compact, 2)
		}
		e := New(compact, Config{Workers: 1})
		res, err := e.Search(context.Background(), Query{
			Concepts: concepts, Join: diffFamilies()[0].factory, K: 4, Mode: ModeOR,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Docs) != 4 {
			t.Fatalf("blocked=%v: got %d docs, want 4", blocked, len(res.Docs))
		}
		for i, dr := range res.Docs {
			if dr.Doc != i {
				t.Fatalf("blocked=%v: rank %d is doc %d, want %d (tie-break by id broken)", blocked, i, dr.Doc, i)
			}
		}
		if got := e.Stats().PivotSkips; got != 0 {
			t.Fatalf("blocked=%v: %d pivots skipped on an all-ties query", blocked, got)
		}
		assertResultInvariants(t, "equality", res)
	}
}

// TestUnionPivotSkipsCounted pins that the union pruning machinery
// actually fires: one dominant document and k=1 must leave a trail of
// skipped pivots (and, in block mode, undecoded blocks). SumMAX is the
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
	for _, blocked := range []bool{false, true} {
		compact := buildCompact(t, docs)
		if blocked {
			index.SetBlockSizeForTest(compact, 4)
		}
		e := New(compact, Config{Workers: 1, QueueDepth: 1})
		res, err := e.Search(context.Background(), Query{
			Concepts: concepts, Join: MAXJoiner(scorefn.SumMAX{Alpha: 0.1}), K: 1, Mode: ModeOR,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Docs[0].Doc != 0 {
			t.Fatalf("blocked=%v: top doc %d, want 0", blocked, res.Docs[0].Doc)
		}
		st := e.Stats()
		if st.PivotSkips == 0 {
			t.Fatalf("blocked=%v: no pivot skips on a skewed corpus (pruned=%d)", blocked, res.Pruned)
		}
		if blocked && st.BlocksSkipped == 0 {
			t.Fatal("block mode: expected candidate blocks pruned below decode")
		}
		assertResultInvariants(t, "skew", res)
	}
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
	e := New(buildCompact(t, []string{"amber"}), Config{Workers: 1})
	kern := &countingBound{}
	b := &bounder{e: e, ub: kern}
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
	panics := e.Stats().JoinPanics
	if got := b.bound([]float64{-1}, 2); !math.IsInf(got, 1) || !b.failed || e.Stats().JoinPanics != panics+1 {
		t.Fatalf("panicking bound: %v, failed %v, %d panics counted", got, b.failed, e.Stats().JoinPanics-panics)
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
// answered document 0. Such a query runs exhaustively, counted in
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
