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

// TestBarMatchesResultOrder: for random heaps and random (bound, doc),
// bound < bar(doc) exactly when (bound, doc) sorts strictly after the
// heap's weakest kept entry under docHeap.Less — the order offer and
// results rank by. Values are drawn from a pool with ±0, ±Inf, NaN and
// neighbouring floats so ties and the edges are hit constantly. A heap
// not yet full and a NaN on either side never prune. The one case the
// float bar cannot say: at a floor of +Inf there is no float above, so
// a lost tie there is kept (conservative, never unsound).
func TestBarMatchesResultOrder(t *testing.T) {
	inf := math.Inf(1)
	pool := []float64{-inf, -1, math.Copysign(0, -1), 0, 5e-324, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 7, math.MaxFloat64, inf, math.NaN()}
	rng := rand.New(rand.NewSource(1903))
	pruned, kept := 0, 0
	for trial := 0; trial < 4000; trial++ {
		k := 1 + rng.Intn(4)
		top := newTopK(k, nil)
		for n := rng.Intn(2 * k); n > 0; n-- {
			top.offer(rng.Intn(12), pool[rng.Intn(len(pool))], nil)
		}
		entry := top.entry()
		for probe := 0; probe < 8; probe++ {
			cand := DocResult{Doc: rng.Intn(12), Score: pool[rng.Intn(len(pool))]}
			got := cand.Score < entry.bar(cand.Doc)
			if len(top.h) < k {
				if got {
					t.Fatalf("heap %+v of k=%d not full, yet (%v, %d) prunes", top.h, k, cand.Score, cand.Doc)
				}
				continue
			}
			root := top.h[0]
			if entry.score != root.Score && !(math.IsNaN(entry.score) && math.IsNaN(root.Score)) || entry.doc != root.Doc {
				t.Fatalf("entry (%v, %d), heap root (%v, %d)", entry.score, entry.doc, root.Score, root.Doc)
			}
			want := docHeap{cand, root}.Less(0, 1)
			if root.Score == inf && cand.Score == inf {
				want = false
			}
			if got != want {
				t.Fatalf("root (%v, %d): (%v, %d) prunes = %v, sorts strictly after the root = %v", root.Score, root.Doc, cand.Score, cand.Doc, got, want)
			}
			if math.IsNaN(cand.Score) && got {
				t.Fatalf("NaN bound prunes against root (%v, %d)", root.Score, root.Doc)
			}
			if got {
				pruned++
			} else {
				kept++
			}
		}
	}
	if pruned < 1000 || kept < 1000 {
		t.Fatalf("%d pruned, %d kept: the draw does not exercise both sides", pruned, kept)
	}
}

// TestTopKEntryNeverTorn hammers offer from several goroutines while
// readers take snapshots: every snapshot must be a (score, doc) pair
// that was the heap's root at some moment — scores are a function of
// the document id here, so a torn pair (one entry's score, another's
// doc) is recognisable on sight — and successive snapshots of one
// reader only improve in rank order.
func TestTopKEntryNeverTorn(t *testing.T) {
	const k, writers, readers, docs = 4, 4, 4, 20000
	score := func(doc int) float64 { return float64(doc % 97) } // many ties across ids
	top := newTopK(k, nil)
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			last := top.entry()
			for {
				e := top.entry()
				if e.doc != math.MaxInt && e.score != score(e.doc) || e.doc == math.MaxInt && !math.IsInf(e.score, -1) {
					t.Errorf("torn snapshot (%v, %d): doc %d scores %v", e.score, e.doc, e.doc, score(e.doc))
					return
				}
				if e.tied != math.Nextafter(e.score, math.Inf(1)) {
					t.Errorf("snapshot (%v, %d) carries tied %v", e.score, e.doc, e.tied)
					return
				}
				if e.score < last.score || e.score == last.score && e.doc > last.doc {
					t.Errorf("snapshot went from (%v, %d) back to (%v, %d)", last.score, last.doc, e.score, e.doc)
					return
				}
				last = e
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(docs) {
				if i%writers == w {
					top.offer(i, score(i), nil)
				}
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	if e, res := top.entry(), top.results(); e.score != res[k-1].Score || e.doc != res[k-1].Doc {
		t.Fatalf("final snapshot (%v, %d), k-th result (%v, %d)", e.score, e.doc, res[k-1].Score, res[k-1].Doc)
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
