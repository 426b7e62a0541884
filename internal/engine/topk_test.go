package engine

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bestjoin/internal/match"
)

// testSet builds a small matchset so offers exercise the clone path.
func testSet(doc int) match.Set {
	return match.Set{{Loc: doc, Score: 1}}
}

// TestTopKOfferEqualityNotScreened pins the one subtlety of offer's
// lock-free floor screen: a score exactly AT the floor must not be
// rejected, because a smaller document id still displaces the weakest
// kept entry. Screening on equality would silently change tie-breaks.
func TestTopKOfferEqualityNotScreened(t *testing.T) {
	top := newTopK(2, nil)
	top.offer(5, 1.0, testSet(5))
	top.offer(9, 1.0, testSet(9))
	if got := top.Floor(); got != 1.0 {
		t.Fatalf("floor %v after filling k=2, want 1.0", got)
	}
	top.offer(3, 1.0, testSet(3)) // equal score, smaller id: must enter
	docs := top.results()
	if len(docs) != 2 || docs[0].Doc != 3 || docs[1].Doc != 5 {
		t.Fatalf("equal-score smaller-id offer did not displace: %+v", docs)
	}
	// Strictly below the floor: rejected (and allocation-free, which
	// BenchmarkTopKOfferContention tracks).
	top.offer(1, 0.5, testSet(1))
	if docs := top.results(); docs[0].Doc != 3 || docs[1].Doc != 5 {
		t.Fatalf("below-floor offer mutated the heap: %+v", docs)
	}
	// At the floor with a larger id: takes the lock, loses, and must not
	// have cloned its set on the way — graded scores make these the
	// bulk of a union query's offers.
	tied := testSet(7)
	if allocs := testing.AllocsPerRun(100, func() { top.offer(7, 1.0, tied) }); allocs != 0 {
		t.Fatalf("losing tie at the floor costs %v allocs, want 0", allocs)
	}
	if docs := top.results(); docs[0].Doc != 3 || docs[1].Doc != 5 {
		t.Fatalf("losing tie mutated the heap: %+v", docs)
	}
}

// TestTopKConcurrentOffersDeterministic hammers one topK from eight
// goroutines with disjoint shuffles of the same offer stream and
// checks the result equals the serial reference — the property the
// lock-free floor screen must not break.
func TestTopKConcurrentOffersDeterministic(t *testing.T) {
	const k, n, workers = 7, 400, 8
	type offer struct {
		doc   int
		score float64
	}
	offers := make([]offer, n)
	rng := rand.New(rand.NewSource(99))
	for i := range offers {
		// Coarse scores force plenty of exact ties across documents.
		offers[i] = offer{doc: i, score: float64(rng.Intn(40)) / 8}
	}

	want := make([]DocResult, 0, n)
	for _, o := range offers {
		want = append(want, DocResult{Doc: o.doc, Score: o.score, Set: testSet(o.doc)})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Score != want[j].Score {
			return want[i].Score > want[j].Score
		}
		return want[i].Doc < want[j].Doc
	})
	want = want[:k]

	for trial := 0; trial < 20; trial++ {
		top := newTopK(k, nil)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			perm := rand.New(rand.NewSource(int64(trial*workers + w))).Perm(n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range perm {
					if i%workers == 0 { // each goroutine offers a slice of the stream
						top.offer(offers[i].doc, offers[i].score, testSet(offers[i].doc))
					}
				}
			}()
		}
		// The remaining offers go in from the test goroutine so every
		// document is offered exactly once per trial overall.
		for i, o := range offers {
			if i%workers != 0 {
				top.offer(o.doc, o.score, testSet(o.doc))
			}
		}
		wg.Wait()
		got := top.results()
		if len(got) != k {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), k)
		}
		for i := range got {
			if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
				t.Fatalf("trial %d rank %d: got doc %d score %v, want doc %d score %v",
					trial, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
			}
		}
		if got := top.Floor(); got != want[k-1].Score {
			t.Fatalf("trial %d: floor %v, want k-th score %v", trial, got, want[k-1].Score)
		}
	}
}

// TestTopKFloorBeforeFull: the floor stays -Inf until k documents are
// held, so nothing is screened while the heap can still absorb.
func TestTopKFloorBeforeFull(t *testing.T) {
	top := newTopK(3, nil)
	top.offer(1, 5, testSet(1))
	top.offer(2, 4, testSet(2))
	if got := top.Floor(); !math.IsInf(got, -1) {
		t.Fatalf("floor %v with a non-full heap, want -Inf", got)
	}
	top.offer(3, 0.001, testSet(3)) // tiny, but the heap is not full
	if docs := top.results(); len(docs) != 3 {
		t.Fatalf("offer dropped while heap had room: %+v", docs)
	}
}

// TestDocHeapPopOrder pins docHeap's heap.Interface contract directly:
// popping drains in (score asc, doc desc) order, so the root is always
// the entry top-k would discard first.
func TestDocHeapPopOrder(t *testing.T) {
	h := docHeap{{Doc: 1, Score: 2}, {Doc: 7, Score: 1}, {Doc: 3, Score: 1}}
	heap.Init(&h)
	heap.Push(&h, DocResult{Doc: 5, Score: 3})
	want := []DocResult{{Doc: 7, Score: 1}, {Doc: 3, Score: 1}, {Doc: 1, Score: 2}, {Doc: 5, Score: 3}}
	for i, w := range want {
		got := heap.Pop(&h).(DocResult)
		if got.Doc != w.Doc || got.Score != w.Score {
			t.Fatalf("pop %d: got (%d, %v), want (%d, %v)", i, got.Doc, got.Score, w.Doc, w.Score)
		}
	}
}

// BenchmarkTopKOfferContention is the satellite-1 regression gauge:
// eight goroutines hammering one full heap with mostly-losing offers,
// the exact shape of a wide disjunctive query. The floor screen should
// keep the losing path lock-free and allocation-free; regressions show
// up as ns/op and allocs/op jumps here.
func BenchmarkTopKOfferContention(b *testing.B) {
	const k, workers = 10, 8
	top := newTopK(k, nil)
	for d := 0; d < k; d++ {
		top.offer(d, 100+float64(d), testSet(d))
	}
	set := testSet(0)
	b.ReportAllocs()
	b.ResetTimer()
	b.SetParallelism(workers)
	b.RunParallel(func(pb *testing.PB) {
		doc := 0
		for pb.Next() {
			doc++
			// 1-in-64 offers beat the floor, the rest lose: realistic
			// for a pruned walk, and keeps the heap k documents deep.
			score := 1.0
			if doc%64 == 0 {
				score = 100 + float64(doc%7)
			}
			top.offer(k+doc, score, set)
		}
	})
}
