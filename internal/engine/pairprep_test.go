package engine

// Tests for demand-filled pair lists (pairprep.go): the plan/build
// split, the epoch-preserving attach, the whole-index plan on
// partitions, and the bounds on background builds. Everything here
// runs under -race in scripts/check.sh.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// buildNote is one notify call of SetPairPlan.
type buildNote struct {
	spec  KernelSpec
	lists int
	err   error
}

// armPlan hands e a plan and returns the channel its finished builds
// are announced on (buffered past the per-epoch cap, so notify never
// blocks a build).
func armPlan(e *Engine, plan PairPlan, budget int) <-chan buildNote {
	notes := make(chan buildNote, 4*maxPreparedSpecs)
	e.SetPairPlan(plan, budget, func(spec KernelSpec, lists int, err error) {
		notes <- buildNote{spec, lists, err}
	})
	return notes
}

func awaitNote(t *testing.T, notes <-chan buildNote) buildNote {
	t.Helper()
	select {
	case n := <-notes:
		return n
	case <-time.After(30 * time.Second):
		t.Fatal("background pair build never finished")
		return buildNote{}
	}
}

func mustSearch(t *testing.T, e *Engine, q Query) *Result {
	t.Helper()
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// referenceBuildPairIndex is the selector as it stood before the
// plan/build split, kept as the reference BuildPairIndex must agree
// with byte for byte: the load harness mirrors that selection to derive
// its pair2 query class.
func referenceBuildPairIndex(idx *index.Compact, concepts []index.Concept, spec KernelSpec, budgetBytes int) int {
	factory, err := spec.Factory()
	if err != nil {
		panic(err)
	}
	kern := factory()
	join := func(lists match.Lists) (match.Set, float64, bool) {
		kern.Reset(nil, lists)
		return kern.Join()
	}
	type cand struct{ a, b, cost int }
	var cands []cand
	for i := range concepts {
		ci := idx.ConceptPostingBytes(concepts[i])
		if ci == 0 {
			continue
		}
		for j := i + 1; j < len(concepts); j++ {
			if cj := idx.ConceptPostingBytes(concepts[j]); cj != 0 {
				cands = append(cands, cand{i, j, ci * cj})
			}
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].cost != cands[y].cost {
			return cands[x].cost > cands[y].cost
		}
		if cands[x].a != cands[y].a {
			return cands[x].a < cands[y].a
		}
		return cands[x].b < cands[y].b
	})
	added, spent := 0, 0
	for _, cd := range cands {
		if budgetBytes > 0 && spent >= budgetBytes {
			break
		}
		if n, ok := idx.AddConceptPairs(concepts[cd.a], concepts[cd.b], spec.Fingerprint(), join); ok {
			added++
			spent += n
		}
	}
	return added
}

// TestBuildPairIndexIsPlanThenBuild: BuildPairIndex, the explicit
// PlanPairs + BuildPairPlan, and the pre-split selector register the
// same lists — compared as whole marshaled indexes — at every budget,
// including ones that cut the plan short.
func TestBuildPairIndexIsPlanThenBuild(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(4100 + int64(trial)))
		docs := diffCorpus(rng)
		concepts := pairConceptsN(rng, 5)
		spec := pairSpecs()[trial%len(pairSpecs())]
		for _, budget := range []int{0, 1, 400, 2000, 1 << 20} {
			want := buildCompact(t, docs)
			nWant := referenceBuildPairIndex(want, concepts, spec, budget)

			whole := buildCompact(t, docs)
			nWhole, err := BuildPairIndex(whole, concepts, spec, budget)
			if err != nil {
				t.Fatal(err)
			}
			split := buildCompact(t, docs)
			nSplit, err := BuildPairPlan(split, PlanPairs(split, concepts), spec, budget)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d budget %d", trial, budget)
			if nWhole != nWant || nSplit != nWant {
				t.Fatalf("%s: registered %d (BuildPairIndex) / %d (plan+build), reference %d", label, nWhole, nSplit, nWant)
			}
			if !bytes.Equal(whole.Marshal(), want.Marshal()) || !bytes.Equal(split.Marshal(), want.Marshal()) {
				t.Fatalf("%s: registered lists differ from the reference selector's", label)
			}
		}
	}
}

// equalDocs compares two rankings bit for bit; unlike assertSameDocs
// it is callable off the test's goroutine.
func equalDocs(a, b []DocResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Score != b[i].Score || len(a[i].Set) != len(b[i].Set) {
			return false
		}
		for j := range a[i].Set {
			if a[i].Set[j] != b[i].Set[j] {
				return false
			}
		}
	}
	return true
}

// attachQueries are the four query shapes the attach must leave
// bitwise unchanged; only the first can be pair-served.
func attachQueries(spec KernelSpec) []Query {
	c := testConcepts()
	return []Query{
		{Concepts: c[:2], Spec: spec, K: 7},
		{Concepts: c, Spec: spec, K: 5},
		{Concepts: c[:2], Spec: spec, K: 7, Mode: ModeOR},
		{Concepts: c, Spec: spec, K: 5, Mode: ModeOR, MinMatch: 2},
	}
}

// TestAttachPairsKeepsEpoch: lists attach in the background, under
// concurrent searchers, without moving the epoch, the health row or
// the match-list cache, and without changing one bit of any answer.
func TestAttachPairsKeepsEpoch(t *testing.T) {
	compact := buildCompact(t, testCorpus(400, 12))
	spec := KernelSpec{Family: "win", Alpha: 0.07, Valid: true}
	queries := attachQueries(spec)
	base := New(compact, Config{Workers: 2, DisablePairIndex: true})
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = mustSearch(t, base, q)
	}

	e := New(compact, Config{Workers: 2})
	e.SwapIndex(compact) // a non-zero epoch, so "unchanged" is not "still zero"
	epoch, health := e.Epoch(), e.Health()
	check := func(label string) {
		for i, q := range queries {
			got := mustSearch(t, e, q)
			if q.Mode == ModeOR {
				assertUnionIdentical(t, fmt.Sprintf("%s query %d", label, i), got, want[i])
			} else {
				assertIdentical(t, fmt.Sprintf("%s query %d", label, i), got, want[i])
			}
		}
	}
	check("before the plan") // no plan yet: kernel path, fills the epoch-keyed caches
	if st := e.Stats(); st.PairServed != 0 || st.BlockDecodes == 0 || st.ListMisses == 0 {
		t.Fatalf("before the plan: %+v", st)
	}

	notes := armPlan(e, PlanPairs(compact, testConcepts()), 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, err := e.Search(context.Background(), queries[i%len(queries)])
				if err != nil {
					t.Error(err)
					return
				}
				if !equalDocs(got.Docs, want[i%len(queries)].Docs) {
					t.Errorf("searcher %d query %d: answer changed while lists attached", g, i%len(queries))
					return
				}
			}
		}(g)
	}
	note := awaitNote(t, notes)
	close(stop)
	wg.Wait()
	if note.err != nil || note.lists != 3 || note.spec != spec {
		t.Fatalf("build announced %+v, want 3 lists for %+v", note, spec)
	}

	if e.Epoch() != epoch || e.Snapshot().Epoch() != epoch || !reflect.DeepEqual(e.Health(), health) {
		t.Fatalf("attach moved the epoch or health: epoch %d→%d, health %+v→%+v", epoch, e.Epoch(), health, e.Health())
	}
	if n := e.Index().ConceptPairsCount(); n != 3 {
		t.Fatalf("live index carries %d pair lists, want 3", n)
	}
	if compact.ConceptPairsCount() != 0 {
		t.Fatal("the build registered lists on the index it forked from")
	}
	before := e.Stats()
	check("after the attach")
	after := e.Stats()
	if after.PairServed != before.PairServed+1 {
		t.Fatalf("two-term query not pair-served after the attach: %d → %d", before.PairServed, after.PairServed)
	}
	if after.ListMisses != before.ListMisses || after.BlockDecodes != before.BlockDecodes ||
		after.ConceptMisses != before.ConceptMisses || after.ListHits == before.ListHits {
		t.Fatalf("epoch-keyed caches did not survive the attach:\nbefore %+v\nafter  %+v", before, after)
	}
	if len(notes) != 0 {
		t.Fatalf("%d further builds announced for a prepared fingerprint", len(notes))
	}
}

// TestAttachPairsLosesToSwap: the attach is a compare-and-swap against
// the snapshot the build forked, so a SwapIndex in between wins, and
// the next query rebuilds on the new snapshot.
func TestAttachPairsLosesToSwap(t *testing.T) {
	compact := buildCompact(t, testCorpus(200, 3))
	spec := KernelSpec{Family: "med", Alpha: 0.05, Valid: true}
	plan := PlanPairs(compact, testConcepts())
	e := New(compact, Config{Workers: 2})

	base := e.Snapshot()
	fork := compact.ForkPairs()
	if n, err := BuildPairPlan(fork, plan, spec, 0); err != nil || n != 3 {
		t.Fatalf("BuildPairPlan = %d, %v", n, err)
	}
	e.SwapIndex(compact)
	if e.AttachPairs(base, fork) {
		t.Fatal("AttachPairs succeeded against a swapped-out snapshot")
	}
	if e.AttachPairs(Snapshot{}, fork) {
		t.Fatal("AttachPairs succeeded against the zero Snapshot")
	}
	if e.Epoch() != 1 || e.Index().ConceptPairsCount() != 0 {
		t.Fatalf("refused attach changed the engine: epoch %d, %d lists", e.Epoch(), e.Index().ConceptPairsCount())
	}

	notes := armPlan(e, plan, 0)
	q := Query{Concepts: testConcepts()[:2], Spec: spec, K: 5}
	want := mustSearch(t, e, q) // kernel-joined; starts the build on epoch 1
	if note := awaitNote(t, notes); note.err != nil || note.lists != 3 {
		t.Fatalf("build on the new snapshot announced %+v", note)
	}
	got := mustSearch(t, e, q)
	assertIdentical(t, "after rebuild", got, want)
	if st := e.Stats(); st.PairServed != 1 || e.Epoch() != 1 {
		t.Fatalf("PairServed %d at epoch %d, want 1 at 1", st.PairServed, e.Epoch())
	}

	// Another swap drops the lists with the index they were built on;
	// the plan survives it and the next query builds them again.
	e.SwapIndex(compact)
	mustSearch(t, e, q)
	if note := awaitNote(t, notes); note.err != nil || note.lists != 3 {
		t.Fatalf("build after the second swap announced %+v", note)
	}
	mustSearch(t, e, q)
	if st := e.Stats(); st.PairServed != 2 || e.Epoch() != 2 {
		t.Fatalf("PairServed %d at epoch %d, want 2 at 2", st.PairServed, e.Epoch())
	}
}

// TestPreparedListsAreRecognised: an index that arrives with lists for
// a fingerprint — the start-up build, or a partition pushed over
// /swapindex by a pusher that built them — is served from as is, never
// rebuilt; and an engine with the pair tier disabled never builds.
func TestPreparedListsAreRecognised(t *testing.T) {
	compact := buildCompact(t, testCorpus(200, 3))
	spec := KernelSpec{Family: "max", Alpha: 0.1}
	plan := PlanPairs(compact, testConcepts())
	withLists := compact.ForkPairs()
	if _, err := BuildPairPlan(withLists, plan, spec, 1); err != nil { // one list only
		t.Fatal(err)
	}
	q := Query{Concepts: testConcepts(), Spec: spec, K: 5}

	e := New(compact, Config{})
	notes := armPlan(e, plan, 0)
	e.SwapIndex(withLists)
	mustSearch(t, e, q)
	off := New(compact, Config{DisablePairIndex: true})
	offNotes := armPlan(off, plan, 0)
	mustSearch(t, off, q)
	e.builds.Wait()
	off.builds.Wait()
	if len(notes) != 0 || e.Index() != withLists {
		t.Fatal("lists that came with the index were rebuilt")
	}
	if len(offNotes) != 0 || off.Index() != compact {
		t.Fatal("a pair-disabled engine built lists")
	}
}

// tiedHalvesCorpus is a corpus whose heaviest stems differ between the
// two halves of a doc%2 partition: amber and basalt dominate the even
// documents and the corpus as a whole, cedar and delta the odd ones.
func tiedHalvesCorpus() []string {
	docs := make([]string, 120)
	for d := range docs {
		even := "amber basalt amber basalt amber basalt amber basalt cedar delta"
		odd := "amber basalt amber basalt cedar delta cedar delta cedar delta"
		if d%2 == 0 {
			docs[d] = even
		} else {
			docs[d] = odd
		}
	}
	return docs
}

func stemConcepts(stems []string) []index.Concept {
	out := make([]index.Concept, len(stems))
	for i, s := range stems {
		out[i] = index.Concept{s: 1}
	}
	return out
}

// TestWholeIndexPlanAgreesAcrossPartitions: planned on the whole
// index, both partitions register the same pair and a heavy two-term
// query is pair-served on every shard. Planned per partition — what a
// -shard-of process did before — the odd shard spends its budget on a
// different pair and kernel-joins the query.
func TestWholeIndexPlanAgreesAcrossPartitions(t *testing.T) {
	whole := buildCompact(t, tiedHalvesCorpus())
	parts, err := whole.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	heavy := whole.HeavyStems(2)
	if got := strings.Join(heavy, ","); got != "amber,basalt" {
		t.Fatalf("whole-index heavy stems %s", got)
	}
	if got := strings.Join(parts[1].HeavyStems(2), ","); got != "cedar,delta" {
		t.Fatalf("odd partition's heavy stems %s: the corpus does not exercise the disagreement", got)
	}
	spec := KernelSpec{Family: "win", Alpha: 0.1, Valid: true}
	q := Query{Concepts: stemConcepts(heavy), Spec: spec, K: 5}
	const oneList = 1 // any positive budget is spent by the first list

	serve := func(part *index.Compact, plan PairPlan) (pairServed uint64) {
		ref := mustSearch(t, New(part, Config{DisablePairIndex: true}), q)
		e := New(part, Config{})
		notes := armPlan(e, plan, oneList)
		mustSearch(t, e, q)
		if note := awaitNote(t, notes); note.err != nil || note.lists != 1 {
			t.Fatalf("build announced %+v, want one list", note)
		}
		assertIdentical(t, "partition", mustSearch(t, e, q), ref)
		return e.Stats().PairServed
	}
	wholePlan := PlanPairs(whole, stemConcepts(heavy))
	for i, part := range parts {
		if serve(part, wholePlan) != 1 {
			t.Fatalf("shard %d did not pair-serve the heavy query under the whole-index plan", i)
		}
	}
	ownPlan := PlanPairs(parts[1], stemConcepts(parts[1].HeavyStems(2)))
	if serve(parts[1], ownPlan) != 0 {
		t.Fatal("odd shard pair-served under its own plan: the corpus does not exercise the disagreement")
	}
}

// TestBackgroundBuildsAreBounded: alpha is continuous, so a stream of
// distinct specs must not start a build each — four per epoch, each
// within the budget, and no goroutine left behind.
func TestBackgroundBuildsAreBounded(t *testing.T) {
	compact := buildCompact(t, testCorpus(200, 3))
	e := New(compact, Config{Workers: 2})
	goroutines := runtime.NumGoroutine()
	notes := armPlan(e, PlanPairs(compact, testConcepts()), 1) // one list per spec
	for i := 0; i < 100; i++ {
		spec := KernelSpec{Family: "med", Alpha: 0.01 * float64(i+1), Valid: true}
		mustSearch(t, e, Query{Concepts: testConcepts()[:2], Spec: spec, K: 3})
	}
	e.builds.Wait()
	if len(notes) != maxPreparedSpecs {
		t.Fatalf("%d builds finished, want %d", len(notes), maxPreparedSpecs)
	}
	idx := e.Index()
	if len(idx.PairSpecs()) != maxPreparedSpecs || idx.ConceptPairsCount() != maxPreparedSpecs {
		t.Fatalf("live index holds %d lists under %d fingerprints, want %d and %d",
			idx.ConceptPairsCount(), len(idx.PairSpecs()), maxPreparedSpecs, maxPreparedSpecs)
	}
	// Builds have returned (builds.Wait); give their goroutines the
	// moment they need to unwind before counting.
	for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines before the builds, %d after", goroutines, n)
	}
}

// TestBackgroundBuildPanicIsContained: a build that panics — here on
// posting bytes that went bad in memory, under a planned concept no
// query touches — is recovered into one announced error; the snapshot
// is untouched, the fingerprint is not retried, queries keep answering.
func TestBackgroundBuildPanicIsContained(t *testing.T) {
	compact := buildCompact(t, testCorpus(200, 3))
	plan := PlanPairs(compact, testConcepts())
	index.CorruptPostingsForTest(compact, "partnership")
	e := New(compact, Config{Workers: 2})
	snap := e.Snapshot()
	notes := armPlan(e, plan, 0)
	spec := KernelSpec{Family: "win", Alpha: 0.07, Valid: true}
	q := Query{Concepts: testConcepts()[:2], Spec: spec, K: 5}
	want := mustSearch(t, e, q)
	note := awaitNote(t, notes)
	if note.err == nil || !strings.Contains(note.err.Error(), "panicked") {
		t.Fatalf("build announced %+v, want a recovered panic", note)
	}
	for i := 0; i < 5; i++ {
		assertIdentical(t, "after the failed build", mustSearch(t, e, q), want)
	}
	e.builds.Wait()
	if len(notes) != 0 {
		t.Fatal("a failed build was retried on the same epoch")
	}
	if e.Snapshot() != snap || e.Index().ConceptPairsCount() != 0 {
		t.Fatal("a failed build changed the live snapshot")
	}
	if st := e.Stats(); st.PairServed != 0 || st.JoinPanics != 0 {
		t.Fatalf("after the failed build: %+v", st)
	}
}

// TestPreparedFingerprintFastPath: once a fingerprint's lists are on
// the snapshot, the check that precedes every spec-only query
// allocates nothing.
func TestPreparedFingerprintFastPath(t *testing.T) {
	compact := buildCompact(t, testCorpus(100, 3))
	spec := KernelSpec{Family: "win", Alpha: 0.07, Valid: true}
	plan := PlanPairs(compact, testConcepts())
	if _, err := BuildPairPlan(compact, plan, spec, 0); err != nil {
		t.Fatal(err)
	}
	e := New(compact, Config{})
	notes := armPlan(e, plan, 0)
	snap, fp := e.snap.Load(), spec.Fingerprint()
	if allocs := testing.AllocsPerRun(100, func() { e.preparePairs(snap, spec, fp) }); allocs != 0 {
		t.Fatalf("prepared-fingerprint check costs %.0f allocs", allocs)
	}
	e.builds.Wait()
	if len(notes) != 0 {
		t.Fatal("a prepared fingerprint started a build")
	}
}
