package engine

// Robustness tests for the fault-tolerance layer: panic isolation
// (kernel and factory panics degrade one query, never crash the
// process), admission control (shed and block policies), hot index
// swap, and prompt cancellation inside corpus-wide decodes. The chaos
// differential harness (chaos_test.go, -tags faultinject) extends
// these with injected faults; this file needs no build tag and runs
// in every `go test`.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// assertSoundSubset asserts that got is a sound subset of the full
// healthy ranking: every returned document appears in full with a
// bitwise-identical score and matchset, and relative order is
// preserved. This is the degraded-result contract — dropped documents
// are allowed, mis-scored ones never.
func assertSoundSubset(t *testing.T, label string, got, full []DocResult) {
	t.Helper()
	rank := make(map[int]int, len(full))
	for i, d := range full {
		rank[d.Doc] = i
	}
	prev := -1
	for i, d := range got {
		r, ok := rank[d.Doc]
		if !ok {
			t.Fatalf("%s: rank %d doc %d not in the healthy ranking at all", label, i, d.Doc)
		}
		ref := full[r]
		if d.Score != ref.Score {
			t.Fatalf("%s: doc %d score %v, healthy ranking has %v", label, d.Doc, d.Score, ref.Score)
		}
		if len(d.Set) != len(ref.Set) {
			t.Fatalf("%s: doc %d matchset %v, healthy ranking has %v", label, d.Doc, d.Set, ref.Set)
		}
		for j := range d.Set {
			if d.Set[j] != ref.Set[j] {
				t.Fatalf("%s: doc %d matchset %v, healthy ranking has %v", label, d.Doc, d.Set, ref.Set)
			}
		}
		if r <= prev {
			t.Fatalf("%s: doc %d ranked out of order relative to the healthy ranking", label, d.Doc)
		}
		prev = r
	}
}

// flakyFactory wraps a kernel factory so that join invocations whose
// global ordinal satisfies panicOn panic instead of evaluating.
func flakyFactory(inner KernelFactory, calls *atomic.Int64, panicOn func(n int64) bool) KernelFactory {
	return func() join.Kernel {
		k := inner()
		return join.KernelFunc(func(ls match.Lists) (match.Set, float64, bool) {
			if panicOn(calls.Add(1)) {
				panic("injected kernel panic")
			}
			k.Reset(nil, ls)
			return k.Join()
		})
	}
}

// blockingFactory returns a factory whose kernels park on release,
// closing entered on the first invocation — the tool for pinning a
// query inside the engine while the test probes admission control or
// swaps the index.
func blockingFactory(entered chan<- struct{}, release <-chan struct{}) KernelFactory {
	var once atomic.Bool
	med := scorefn.ExpMED{Alpha: 0.1}
	return func() join.Kernel {
		return join.KernelFunc(func(ls match.Lists) (match.Set, float64, bool) {
			if once.CompareAndSwap(false, true) {
				close(entered)
			}
			<-release
			return join.MED(med, ls)
		})
	}
}

func TestKernelPanicIsolatedToOneDocument(t *testing.T) {
	c := buildCompact(t, testCorpus(150, 21))
	e := New(c, Config{Workers: 4})
	inner := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	full := bruteForce(c, testConcepts(), inner, c.Docs())

	var calls atomic.Int64
	flaky := flakyFactory(inner, &calls, func(n int64) bool { return n%5 == 3 })
	res, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: flaky, K: 8})
	if err != nil {
		t.Fatalf("panicking kernels must degrade, not error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set despite kernel panics")
	}
	if res.Failed == 0 {
		t.Fatal("Failed is zero despite kernel panics")
	}
	if res.Partial {
		t.Errorf("degraded-but-complete query marked Partial (evaluated %d + failed %d of %d)",
			res.Evaluated, res.Failed, res.Candidates)
	}
	if got := res.Evaluated + res.Pruned + res.Failed; got != res.Candidates {
		t.Errorf("accounting: evaluated+pruned+failed = %d, candidates = %d", got, res.Candidates)
	}
	assertSoundSubset(t, "kernel-panic", res.Docs, full)
	st := e.Stats()
	if st.JoinPanics == 0 {
		t.Error("recovered panics not counted in Stats().JoinPanics")
	}
	if st.DegradedResults == 0 {
		t.Error("degraded query not counted in Stats().DegradedResults")
	}

	// The engine must be fully healthy afterwards: the same query with
	// the sane kernel gives the exact brute-force answer.
	clean, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: inner, K: 8})
	if err != nil || clean.Degraded || clean.Partial {
		t.Fatalf("engine unhealthy after recovered panics: %v %+v", err, clean)
	}
	assertSoundSubset(t, "after-recovery", clean.Docs, full)
	if len(clean.Docs) != 8 {
		t.Fatalf("after recovery got %d docs, want 8", len(clean.Docs))
	}
}

func TestFactoryPanicDegradesQuery(t *testing.T) {
	c := buildCompact(t, testCorpus(80, 23))
	e := New(c, Config{Workers: 2})
	bad := KernelFactory(func() join.Kernel { panic("no kernels today") })
	res, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: bad, K: 5})
	if err != nil {
		t.Fatalf("panicking factory must degrade, not error: %v", err)
	}
	if !res.Degraded || res.Failed != res.Candidates || len(res.Docs) != 0 {
		t.Fatalf("want all %d candidates failed with empty docs, got %+v", res.Candidates, res)
	}
	if res.Partial {
		t.Error("fully-failed query is accounted for, must not be Partial")
	}
}

func TestEveryJoinPanicsStillCompletes(t *testing.T) {
	c := buildCompact(t, testCorpus(80, 25))
	e := New(c, Config{Workers: 3})
	var calls atomic.Int64
	always := flakyFactory(MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), &calls, func(int64) bool { return true })
	res, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: always, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Failed != res.Candidates || len(res.Docs) != 0 {
		t.Fatalf("want all %d candidates failed, got %+v", res.Candidates, res)
	}
}

func TestAdmissionShed(t *testing.T) {
	c := buildCompact(t, testCorpus(60, 27))
	e := New(c, Config{Workers: 1, MaxInFlight: 1, Overload: OverloadShed})

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := e.Search(context.Background(),
			Query{Concepts: testConcepts(), Join: blockingFactory(entered, release), K: 3})
		done <- err
	}()
	<-entered

	_, err := e.Search(context.Background(),
		Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 3})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second query at the cap: err = %v, want ErrOverloaded", err)
	}
	st := e.Stats()
	if st.Shed != 1 {
		t.Errorf("Stats().Shed = %d, want 1", st.Shed)
	}
	if st.InFlight != 1 {
		t.Errorf("Stats().InFlight = %d, want 1", st.InFlight)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked query failed: %v", err)
	}
	if _, err := e.Search(context.Background(),
		Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 3}); err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
}

func TestAdmissionBlockHonorsContext(t *testing.T) {
	c := buildCompact(t, testCorpus(60, 29))
	e := New(c, Config{Workers: 1, MaxInFlight: 1}) // OverloadBlock default

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := e.Search(context.Background(),
			Query{Concepts: testConcepts(), Join: blockingFactory(entered, release), K: 3})
		done <- err
	}()
	<-entered

	// A waiter whose context expires gets ErrOverloaded carrying the
	// context cause.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.Search(ctx, Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 3})
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter: err = %v, want ErrOverloaded wrapping DeadlineExceeded", err)
	}

	// A patient waiter is admitted once the slot frees.
	waited := make(chan error, 1)
	go func() {
		_, err := e.Search(context.Background(),
			Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 3})
		waited <- err
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked query failed: %v", err)
	}
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("patient waiter failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("patient waiter never admitted after the slot freed")
	}
}

func TestSwapIndexServesNewIndexWithoutStaleCache(t *testing.T) {
	a := buildCompact(t, testCorpus(60, 31))
	b := buildCompact(t, testCorpus(90, 33))
	e := New(a, Config{Workers: 2})
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	q := Query{Concepts: testConcepts(), Join: jn, K: 50}

	wantA := bruteForce(a, testConcepts(), jn, 50)
	resA, err := e.Search(context.Background(), q) // populates caches under epoch 0
	if err != nil {
		t.Fatal(err)
	}
	assertSoundSubset(t, "pre-swap", resA.Docs, wantA)
	if len(resA.Docs) != len(wantA) {
		t.Fatalf("pre-swap: %d docs, want %d", len(resA.Docs), len(wantA))
	}

	e.SwapIndex(b)
	if e.Index() != b {
		t.Fatal("Index() does not return the swapped-in index")
	}
	wantB := bruteForce(b, testConcepts(), jn, 50)
	resB, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSoundSubset(t, "post-swap", resB.Docs, wantB)
	if len(resB.Docs) != len(wantB) {
		t.Fatalf("post-swap: %d docs, want %d (stale cache?)", len(resB.Docs), len(wantB))
	}
	if st := e.Stats(); st.IndexReloads != 1 {
		t.Errorf("Stats().IndexReloads = %d, want 1", st.IndexReloads)
	}
}

func TestSwapIndexInFlightQueryFinishesOnOldSnapshot(t *testing.T) {
	a := buildCompact(t, testCorpus(60, 35))
	b := buildCompact(t, []string{"unrelated corpus with none of the concept words"})
	e := New(a, Config{Workers: 1})

	entered := make(chan struct{})
	release := make(chan struct{})
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := e.Search(context.Background(),
			Query{Concepts: testConcepts(), Join: blockingFactory(entered, release), K: 3})
		done <- out{res, err}
	}()
	<-entered
	e.SwapIndex(b) // the in-flight query must not notice
	close(release)
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Candidates == 0 || len(o.res.Docs) == 0 {
		t.Fatalf("in-flight query lost its snapshot on swap: %+v", o.res)
	}
	// New queries see the swapped-in (conceptless) index.
	res, err := e.Search(context.Background(),
		Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 3})
	if err != nil || res.Candidates != 0 {
		t.Fatalf("post-swap query: err=%v candidates=%d, want 0", err, res.Candidates)
	}
}

// TestCancelledContextAbandonsDecode pins the decode-cancellation fix:
// a query whose context has ended checks it before each concept's
// table build, so it returns promptly with Partial instead of building
// tables from the postings nobody will read. The corpus is large
// enough that building all concepts' tables takes visible time; the
// budget is generous enough to stay robust on slow CI.
func TestCancelledContextAbandonsDecode(t *testing.T) {
	c := buildCompact(t, testCorpus(4000, 37))
	e := New(c, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	startQ := time.Now()
	res, err := e.Search(ctx, Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 5})
	elapsed := time.Since(startQ)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("cancelled-during-decode query not marked Partial")
	}
	if res.Evaluated != 0 || len(res.Docs) != 0 {
		t.Errorf("cancelled query produced work: %+v", res)
	}
	// Decoding this corpus takes far longer than the cancellation
	// stride; a second is pure slack for CI noise.
	if elapsed > time.Second {
		t.Errorf("cancelled query took %v; decode did not honor cancellation", elapsed)
	}
	// The abandoned decode must not have poisoned the caches: the same
	// query with a live context is complete and correct.
	full, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 5})
	if err != nil || full.Partial || full.Degraded {
		t.Fatalf("engine unhealthy after abandoned decode: %v %+v", err, full)
	}
	want := bruteForce(c, testConcepts(), MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), 5)
	assertSoundSubset(t, "after-abandoned-decode", full.Docs, want)
	if len(full.Docs) != len(want) {
		t.Fatalf("after abandoned decode: %d docs, want %d", len(full.Docs), len(want))
	}
}

// TestDecodePanicOnCorruptIndexDegrades feeds the engine an index
// whose postings bytes have been corrupted in memory so the decode
// path panics, and asserts the query degrades to an empty sound
// answer instead of crashing.
func TestDecodePanicOnCorruptIndexDegrades(t *testing.T) {
	c := buildCompact(t, testCorpus(40, 39))
	index.CorruptPostingsForTest(c, "lenovo")
	e := New(c, Config{Workers: 2})
	res, err := e.Search(context.Background(),
		Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 5})
	if err != nil {
		t.Fatalf("corrupt concept must degrade, not error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set for a corrupt concept decode")
	}
	if len(res.Docs) != 0 {
		t.Fatalf("corrupt concept produced documents: %+v", res.Docs)
	}
	if st := e.Stats(); st.DecodeFailures == 0 {
		t.Error("decode failure not counted in Stats().DecodeFailures")
	}
	// Concepts not touching the corrupt list still work.
	ok, err := e.Search(context.Background(), Query{
		Concepts: []index.Concept{{"nba": 1, "olympics": 0.9}},
		Join:     MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 5,
	})
	if err != nil || ok.Degraded {
		t.Fatalf("healthy concept degraded by unrelated corruption: %v %+v", err, ok)
	}
}

// TestQueryTooWideRejectedOnce: a WIN query wider than the kernel's
// subset table allows is a typed error at the entry point — not one
// recovered kernel panic per candidate document behind a 200 degraded
// answer. Families without a width cap take the same query.
func TestQueryTooWideRejectedOnce(t *testing.T) {
	e := New(buildCompact(t, testCorpus(40, 3)), Config{Workers: 2})
	wide := make([]index.Concept, join.MaxWINTerms+1)
	for i := range wide {
		wide[i] = testConcepts()[i%3]
	}
	for _, mode := range []QueryMode{ModeAND, ModeOR} {
		q := Query{Concepts: wide, Spec: KernelSpec{Family: "win", Alpha: 0.1, Valid: true}, Mode: mode}
		if _, err := e.Search(context.Background(), q); !errors.Is(err, ErrQueryTooWide) {
			t.Fatalf("mode %v: %d-concept WIN query: err %v, want ErrQueryTooWide", mode, len(wide), err)
		}
	}
	if st := e.Stats(); st.JoinPanics != 0 || st.JoinsRun != 0 || st.Queries != 0 {
		t.Fatalf("rejected queries still did work: %+v", st)
	}
	q := Query{Concepts: wide, Spec: KernelSpec{Family: "med", Alpha: 0.1, Valid: true}}
	if res, err := e.Search(context.Background(), q); err != nil || res.Degraded {
		t.Fatalf("%d-concept MED query: err %v, result %+v", len(wide), err, res)
	}
}
