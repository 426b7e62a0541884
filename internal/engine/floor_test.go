package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

func TestGlobalFloorMonotone(t *testing.T) {
	g := NewGlobalFloor()
	if f := g.Load(); !math.IsInf(f, -1) {
		t.Fatalf("fresh floor = %v, want -Inf", f)
	}
	g.Raise(1.5)
	if f := g.Load(); f != 1.5 {
		t.Fatalf("after Raise(1.5): %v", f)
	}
	g.Raise(0.5) // lower: no-op
	if f := g.Load(); f != 1.5 {
		t.Fatalf("Raise(0.5) lowered the floor to %v", f)
	}
	g.Raise(1.5) // equal: no-op
	g.Raise(2.25)
	if f := g.Load(); f != 2.25 {
		t.Fatalf("after Raise(2.25): %v", f)
	}
}

func TestGlobalFloorConcurrentRaises(t *testing.T) {
	g := NewGlobalFloor()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Raise(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if f := g.Load(); f != 7999 {
		t.Fatalf("concurrent max lost: floor = %v, want 7999", f)
	}
}

// A heap coupled to a shared floor must publish its local floor rises
// and prune offers against the higher of the two floors.
func TestTopKSharedFloor(t *testing.T) {
	g := NewGlobalFloor()
	top := newTopK(2, g)
	top.offer(1, 5.0, match.Set{})
	top.offer(2, 4.0, match.Set{})
	// Heap full: local floor 4.0 must have been raised into the shared
	// floor for sibling heaps to see.
	if f := g.Load(); f != 4.0 {
		t.Fatalf("shared floor = %v, want 4.0", f)
	}
	// A sibling's stronger floor must screen this heap's weak offers.
	g.Raise(10.0)
	if f := top.Floor(); f != 10.0 {
		t.Fatalf("Floor() = %v, want shared 10.0", f)
	}
	top.offer(3, 6.0, match.Set{})
	res := top.results()
	if len(res) != 2 || res[0].Doc != 1 || res[1].Doc != 2 {
		t.Fatalf("offer below shared floor entered the heap: %+v", res)
	}
	// Equality with the shared floor must not prune: the doc-id
	// tie-break still matters to the merged result.
	top.offer(0, 10.0, match.Set{})
	res = top.results()
	if res[0].Doc != 0 || res[0].Score != 10.0 {
		t.Fatalf("equal-to-floor offer was pruned: %+v", res)
	}
}

// TestSharedFloorTieRule: which ties a member may prune depends on
// where the shared floor sits. Strictly above the member's own k-th
// kept score it is a score and nothing more — some other member holds
// the documents, their ids are unknown — so a document tying it never
// prunes, whatever ids this member keeps. Equal to (or below) the
// member's own score, the member's own entry decides: a document that
// k local entries outrank is out of this member's top-k and so out of
// the merge.
func TestSharedFloorTieRule(t *testing.T) {
	g := NewGlobalFloor()
	top := newTopK(2, g)
	top.offer(2, 0.5, nil)
	top.offer(3, 0.5, nil)
	if e := top.entry(); e.score != 0.5 || e.doc != 3 || !(0.5 < e.bar(9)) || e.bar(1) != 0.5 {
		t.Fatalf("local entry (%v, %d), bar(9) %v, bar(1) %v: want (0.5, 3), above 0.5, 0.5", e.score, e.doc, e.bar(9), e.bar(1))
	}
	g.Raise(1.0) // another member's documents
	if e := top.entry(); e.score != 1.0 || e.doc != math.MaxInt || e.bar(9) != 1.0 {
		t.Fatalf("shared floor above the local score: entry (%v, %d), bar(9) %v; want (1, MaxInt) and 1 — document 9 may hold the merge's lowest id", e.score, e.doc, e.bar(9))
	}
	top.offer(9, 1.0, nil)
	top.offer(5, 1.0, nil) // local k-th score now equals the shared floor
	if e := top.entry(); e.score != 1.0 || e.doc != 9 || !(1.0 < e.bar(11)) || e.bar(7) != 1.0 {
		t.Fatalf("shared floor equal to the local score: entry (%v, %d), bar(11) %v, bar(7) %v; want (1, 9), above 1, 1", e.score, e.doc, e.bar(11), e.bar(7))
	}
}

func TestEngineHealthAndEpoch(t *testing.T) {
	idx := buildCompact(t, []string{"alpha beta", "beta gamma"})
	e := New(idx, Config{Workers: 1})
	h := e.Health()
	if !h.Ready || h.Epoch != 0 || h.Docs != 2 || len(h.Shards) != 0 {
		t.Fatalf("fresh Health = %+v", h)
	}
	if e.Epoch() != 0 {
		t.Fatalf("fresh Epoch = %d", e.Epoch())
	}
	e.SwapIndex(buildCompact(t, []string{"alpha"}))
	h = e.Health()
	if !h.Ready || h.Epoch != 1 || h.Docs != 1 {
		t.Fatalf("post-swap Health = %+v", h)
	}
	if e.Epoch() != 1 {
		t.Fatalf("post-swap Epoch = %d", e.Epoch())
	}
}

// SearchSnapshot must keep serving a pinned snapshot even after
// SwapIndex moves the engine on — the guarantee rolling shard reloads
// are built on.
func TestSearchSnapshotPinsEpoch(t *testing.T) {
	oldIdx := buildCompact(t, []string{
		"lenovo laptops",
		"no relevant words here",
	})
	e := New(oldIdx, Config{Workers: 2})
	q := Query{
		Concepts: []index.Concept{{"lenovo": 1.0}},
		Join:     WINJoiner(scorefn.ExpWIN{Alpha: 0.5}),
		K:        5,
	}
	pin := e.Snapshot()
	if pin.Epoch() != 0 || pin.Docs() != 2 {
		t.Fatalf("pinned snapshot = epoch %d docs %d", pin.Epoch(), pin.Docs())
	}

	// Swap to an index where the concept no longer matches anything.
	e.SwapIndex(buildCompact(t, []string{"nothing at all"}))

	res, err := e.SearchSnapshot(context.Background(), q, pin)
	if err != nil {
		t.Fatalf("SearchSnapshot: %v", err)
	}
	if len(res.Docs) != 1 || res.Docs[0].Doc != 0 {
		t.Fatalf("pinned search results = %+v, want doc 0 from the old index", res.Docs)
	}
	// The live path must see the new, empty index.
	live, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(live.Docs) != 0 {
		t.Fatalf("live search returned %+v from a swapped-out index", live.Docs)
	}
}

func TestSearchSnapshotZeroHandle(t *testing.T) {
	e := New(buildCompact(t, []string{"alpha"}), Config{Workers: 1})
	q := Query{Concepts: []index.Concept{{"alpha": 1.0}}, Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.5})}
	if _, err := e.SearchSnapshot(context.Background(), q, Snapshot{}); err == nil {
		t.Fatal("zero Snapshot accepted")
	}
	var zero Snapshot
	if zero.Epoch() != 0 || zero.Docs() != 0 {
		t.Fatal("zero Snapshot reports non-zero epoch or docs")
	}
}

func TestPublishFuncDuplicate(t *testing.T) {
	e := New(buildCompact(t, []string{"alpha"}), Config{Workers: 1})
	const name = "bestjoin.engine.floor_test"
	if err := PublishFunc(name, e.Stats); err != nil {
		t.Fatalf("first PublishFunc: %v", err)
	}
	if err := PublishFunc(name, e.Stats); err == nil {
		t.Fatal("duplicate PublishFunc accepted")
	}
}
