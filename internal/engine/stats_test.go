package engine

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"bestjoin/internal/dedup"
	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/naive"
	"bestjoin/internal/scorefn"
)

// TestKernelInvocationsCounted: Stats().KernelInvocations is the sum of
// the valid-matchset kernel's per-join invocation counts — checked
// against a direct replay of every candidate — and stays 0 for an
// unwrapped kernel, so KernelInvocations/JoinsRun read off a live
// server is the paper's Figure 8 quantity. With pruning off no join
// sees a floor and the count is the floorless replay's; with pruning
// on and one worker the bar each join sees (floorEntry.bar: the floor,
// or one ulp above it for a document that has lost the tie on id) is a
// function of dispatch order alone, so a replay that models both
// kernel-floor screens and the cache rung ahead of them must predict
// every counter exactly — JoinsRun,
// KernelInvocations, FloorCutJoins, WindowCutJoins, PrunedDocs, for the
// wrapped kernel and the bare one — and the wrapped count must come out
// strictly below the floorless one; with more workers the floors depend on the schedule,
// like PrunedDocs, and only the bounds hold.
func TestKernelInvocationsCounted(t *testing.T) {
	// Three documents the window screen must let through to the search
	// floor: every concept's best word is there, so the cap is high, but
	// far from the others, and the words that sit together are weak.
	corpus := testCorpus(200, 5)
	far := strings.Repeat("quartz ", 40)
	for i := 0; i < 3; i++ {
		corpus = append(corpus, "lenovo "+far+"nba "+far+"partnership "+far+"hewlett basketball alliance")
	}
	compact := buildCompact(t, corpus)
	concepts := overlapConcepts()
	fn := scorefn.ExpWIN{Alpha: 0.07}
	spec := KernelSpec{Family: "win", Alpha: 0.07, Valid: true}
	ctx := context.Background()

	e := New(compact, Config{Workers: 2, DisablePruning: true})
	if _, err := e.Search(ctx, Query{Concepts: concepts, Join: WINJoiner(fn)}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JoinsRun == 0 || st.KernelInvocations != 0 || st.FloorCutJoins != 0 || st.WindowCutJoins != 0 {
		t.Fatalf("unwrapped kernel, unpruned: JoinsRun %d, KernelInvocations %d, FloorCutJoins %d, WindowCutJoins %d, want >0, 0, 0 and 0",
			st.JoinsRun, st.KernelInvocations, st.FloorCutJoins, st.WindowCutJoins)
	}

	// The floorless replay, collecting what the floored one needs: each
	// candidate's lists, its score upper bound — over the block maxima
	// the engine bounds it by — and its window cap: scorefn's bound at
	// the document's own maxima and the smallest window of its whole
	// cross product, not at whatever the kernel's merge scan says.
	tables := make([]*index.BlockTable, len(concepts))
	for j, c := range concepts {
		tables[j], _ = compact.ConceptBlocks(c)
	}
	var joins, invocations uint64
	kern := ValidWINJoiner(fn)().(*dedup.Kernel)
	var docs []int
	var lists []match.Lists
	var bounds, caps []float64
	for d := 0; d < compact.Docs(); d++ {
		if l := compact.QueryLists(d, concepts); l.Complete() {
			kern.Reset(nil, l)
			kern.Join()
			joins++
			invocations += uint64(kern.Invocations())
			gsum, mag, blockMax := 0.0, 0.0, make([]float64, len(l))
			for j := range l {
				smax := 0.0
				for _, m := range l[j] {
					smax = max(smax, m.Score)
				}
				g := fn.G(j, smax)
				gsum, mag = gsum+g, mag+math.Abs(g)
				blockMax[j] = tables[j].Infos[tables[j].FindBlock(d)].MaxScore
			}
			wmin := math.MaxInt
			naive.ForEach(l, func(s match.Set) { wmin = min(wmin, s.Window()) })
			docs, lists = append(docs, d), append(lists, l)
			bounds, caps = append(bounds, kern.ScoreUpperBound(blockMax, 0)), append(caps, scorefn.CapWIN(fn, gsum, mag, wmin))
		}
	}
	if invocations <= joins {
		t.Fatalf("replay: %d invocations over %d joins — no join split, the corpus does not exercise the counter", invocations, joins)
	}
	e = New(compact, Config{Workers: 2, DisablePruning: true})
	if _, err := e.Search(ctx, Query{Concepts: concepts, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JoinsRun != joins || st.KernelInvocations != invocations || st.FloorCutJoins != 0 || st.WindowCutJoins != 0 {
		t.Fatalf("valid kernel, unpruned: JoinsRun %d KernelInvocations %d FloorCutJoins %d WindowCutJoins %d, replay says %d, %d, 0 and 0",
			st.JoinsRun, st.KernelInvocations, st.FloorCutJoins, st.WindowCutJoins, joins, invocations)
	}

	// The floored replay: one worker takes candidates in bound order,
	// skips those whose bound is under their bar, arms the kernel with
	// that bar, and reloads the floor entry after every offer. Before the
	// join it takes the cache rung, as the engine does: the lists'
	// signatures, and a WIN kernel's cut width at the bar, prune a
	// document whose every window is at least that wide. The kernels
	// replayed know no window screen — one-shot joins, which dedup.Wrap
	// cannot arm — so the screen is the model's: a candidate whose window
	// cap is under the floor is cut at its root run, unscored. The search
	// floor alone would have cut it there too, one kernel run later, so
	// the screen moves no counter but its own.
	oneShot := func(l match.Lists) (match.Set, float64, bool) { return join.WIN(fn, l) }
	sigs := make([][]join.Sig, len(lists))
	for i, l := range lists {
		for _, list := range l {
			sigs[i] = append(sigs[i], join.Signature(list))
		}
	}
	type prediction struct{ joins, invocations, floorCuts, windowCuts, pruned uint64 }
	replay := func(valid bool) (p prediction, rungCuts int) {
		search := dedup.Wrap(join.KernelFunc(oneShot))
		rung := join.NewWINKernel(fn)
		top := newTopK(DefaultK, nil)
		entry := top.entry()
		for _, i := range boundOrder(bounds) {
			floor := entry.bar(docs[i])
			if bounds[i] < floor {
				p.pruned++
				continue
			}
			if w, cuts := rung.CutWidth(sigs[i], floor); cuts && join.Apart(sigs[i], w) {
				if caps[i] >= floor {
					t.Fatalf("doc %d: the rung cuts at width %d, but the window cap %v is not under the floor %v", docs[i], w, caps[i], floor)
				}
				p.pruned++
				rungCuts++
				continue
			}
			p.joins++
			set, score, ok := oneShot(lists[i])
			if valid {
				search.SetFloor(floor)
				search.Reset(nil, lists[i])
				set, score, ok = search.Join()
				p.invocations += uint64(search.Invocations())
			}
			switch windowCut := caps[i] < floor; {
			case windowCut:
				if valid && !(search.FloorCut() && search.Invocations() == 1) || score >= floor {
					t.Fatalf("doc %d: window cap %v under floor %v, but the join scores %v", docs[i], caps[i], floor, score)
				}
				p.windowCuts++
				p.floorCuts++
				ok = false
			case valid && search.FloorCut():
				p.floorCuts++
			}
			if ok {
				top.offer(docs[i], score, set)
				entry = top.entry()
			}
		}
		return p, rungCuts
	}
	for _, valid := range []bool{true, false} {
		p, rungCuts := replay(valid)
		if rungCuts == 0 || p.windowCuts == 0 || valid && (p.floorCuts == p.windowCuts || p.invocations >= invocations) {
			t.Fatalf("floored replay (valid %v): %+v and %d rung cuts against %d floorless invocations — the corpus does not exercise every cut", valid, p, rungCuts, invocations)
		}
		e = New(compact, Config{Workers: 1})
		if _, err := e.Search(ctx, Query{Concepts: concepts, Spec: KernelSpec{Family: "win", Alpha: 0.07, Valid: valid}}); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if got := (prediction{st.JoinsRun, st.KernelInvocations, st.FloorCutJoins, st.WindowCutJoins, st.PrunedDocs}); got != p {
			t.Fatalf("one worker (valid %v): JoinsRun, KernelInvocations, FloorCutJoins, WindowCutJoins, PrunedDocs %+v, replay says %+v", valid, got, p)
		}
		if st.DocsEvaluated != st.JoinsRun {
			t.Fatalf("one worker (valid %v): DocsEvaluated %d, JoinsRun %d — a cut join is an evaluated document", valid, st.DocsEvaluated, st.JoinsRun)
		}
	}
	e = New(compact, Config{Workers: 4})
	if _, err := e.Search(ctx, Query{Concepts: concepts, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.KernelInvocations < st.JoinsRun || st.KernelInvocations > invocations || st.WindowCutJoins > st.FloorCutJoins || st.FloorCutJoins > st.JoinsRun || st.JoinsRun > joins {
		t.Fatalf("valid kernel, four workers: JoinsRun %d KernelInvocations %d FloorCutJoins %d WindowCutJoins %d outside [JoinsRun, %d], [WindowCutJoins, JoinsRun], [0, %d]",
			st.JoinsRun, st.KernelInvocations, st.FloorCutJoins, st.WindowCutJoins, invocations, joins)
	}
}

// TestOneWorkerCountsPinned pins the join counters of a seeded stream
// — AND, OR and 2-of-3 queries under WIN and MED, bare and wrapped in
// the valid-matchset search — at one worker, where every join sees a
// bar that depends on the dispatch order alone. A kernel that cuts
// exactly the documents it used to cut, and a search that reruns
// exactly the sub-instances it used to, reproduce them to the count.
// They were re-recorded when the cache rung began pruning before the
// join: joins 4 504 → 1 518, floor cuts 3 654 → 668, window cuts
// 3 585 → 599 and kernel invocations 2 848 → 1 436 — every document
// the rung took was one the window screen used to cut, so joins, floor
// cuts and window cuts fell by the same 2 986. The conjunctive queries'
// Result.Pruned (0 before the rung) is pinned beside them: an AND
// query's candidates are fixed, so what is not joined is pruned. A
// disjunctive walk's pivot jumps skip documents uncounted, as far as a
// floor the worker has raised by then allows, so its prunes are not
// pinned.
func TestOneWorkerCountsPinned(t *testing.T) {
	compact := buildCompact(t, testCorpus(600, 31))
	e := New(compact, Config{Workers: 1})
	var andPruned uint64
	for _, concepts := range [][]index.Concept{testConcepts(), overlapConcepts()} {
		for _, family := range []string{"win", "med"} {
			for _, valid := range []bool{true, false} {
				for _, shape := range []struct {
					mode     QueryMode
					minMatch int
				}{{ModeAND, 0}, {ModeOR, 0}, {ModeOR, 2}} {
					q := Query{Concepts: concepts, Spec: KernelSpec{Family: family, Alpha: 0.1, Valid: valid},
						K: 5, Mode: shape.mode, MinMatch: shape.minMatch}
					res, err := e.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					if shape.mode == ModeAND {
						andPruned += uint64(res.Pruned)
					}
				}
			}
		}
	}
	type counts struct{ joins, floorCuts, windowCuts, invocations, andPruned uint64 }
	st := e.Stats()
	got := counts{st.JoinsRun, st.FloorCutJoins, st.WindowCutJoins, st.KernelInvocations, andPruned}
	if want := (counts{1518, 668, 599, 1436, 554}); got != want {
		t.Fatalf("JoinsRun, FloorCutJoins, WindowCutJoins, KernelInvocations, conjunctive Pruned %+v, want %+v", got, want)
	}
}

// TestHistogramObserveEdges pins the histogram's two clamp branches:
// a negative duration (clock skew between the two reads around a
// query) lands in the lowest bucket instead of indexing with a
// negative bit length, and a duration past the last power-of-two
// bucket lands in the overflow bucket instead of out of range.
func TestHistogramObserveEdges(t *testing.T) {
	var h histogram
	h.observe(-time.Second)
	h.observe(time.Microsecond)
	h.observe(1 << 40 * time.Microsecond)
	snap := h.snapshot()
	if snap.Count != 3 {
		t.Fatalf("snapshot count %d, want 3", snap.Count)
	}
	last := snap.Buckets[len(snap.Buckets)-1]
	if last.UpperMicros != 0 {
		t.Fatalf("huge observation missed the overflow bucket: %+v", snap.Buckets)
	}
	var total uint64
	for _, b := range snap.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("buckets hold %d observations, want 3", total)
	}
}
