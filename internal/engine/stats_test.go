package engine

import (
	"context"
	"testing"
	"time"

	"bestjoin/internal/dedup"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// TestKernelInvocationsCounted: Stats().KernelInvocations is the sum of
// the valid-matchset kernel's per-join invocation counts — checked
// against a direct replay of every candidate — and stays 0 for an
// unwrapped kernel, so KernelInvocations/JoinsRun read off a live
// server is the paper's Figure 8 quantity. With pruning off no join
// sees a floor and the count is the floorless replay's; with pruning
// on and one worker the floor each join sees is a function of dispatch
// order alone, so a replay arming the same floors must match exactly
// (FloorCutJoins too) and come out strictly below the floorless count;
// with more workers the floors depend on the schedule, like
// PrunedDocs, and only the bounds hold.
func TestKernelInvocationsCounted(t *testing.T) {
	compact := buildCompact(t, testCorpus(200, 5))
	concepts := overlapConcepts()
	fn := scorefn.ExpWIN{Alpha: 0.07}
	spec := KernelSpec{Family: "win", Alpha: 0.07, Valid: true}
	ctx := context.Background()

	e := New(compact, Config{Workers: 2, DisablePruning: true})
	if _, err := e.Search(ctx, Query{Concepts: concepts, Join: WINJoiner(fn)}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JoinsRun == 0 || st.KernelInvocations != 0 || st.FloorCutJoins != 0 {
		t.Fatalf("unwrapped kernel: JoinsRun %d, KernelInvocations %d, FloorCutJoins %d, want >0, 0 and 0", st.JoinsRun, st.KernelInvocations, st.FloorCutJoins)
	}

	// The floorless replay, collecting what the floored one needs: each
	// candidate's lists and its score upper bound.
	var joins, invocations uint64
	kern := ValidWINJoiner(fn)().(*dedup.Kernel)
	var docs []int
	var lists []match.Lists
	var bounds []float64
	for d := 0; d < compact.Docs(); d++ {
		if l := compact.QueryLists(d, concepts); l.Complete() {
			kern.Reset(nil, l)
			kern.Join()
			joins++
			invocations += uint64(kern.Invocations())
			maxima := make([]float64, len(l))
			for j := range l {
				for _, m := range l[j] {
					maxima[j] = max(maxima[j], m.Score)
				}
			}
			docs, lists, bounds = append(docs, d), append(lists, l), append(bounds, kern.ScoreUpperBound(maxima))
		}
	}
	if invocations <= joins {
		t.Fatalf("replay: %d invocations over %d joins — no join split, the corpus does not exercise the counter", invocations, joins)
	}
	e = New(compact, Config{Workers: 2, DisablePruning: true})
	if _, err := e.Search(ctx, Query{Concepts: concepts, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JoinsRun != joins || st.KernelInvocations != invocations || st.FloorCutJoins != 0 {
		t.Fatalf("valid kernel, unpruned: JoinsRun %d KernelInvocations %d FloorCutJoins %d, replay says %d, %d and 0",
			st.JoinsRun, st.KernelInvocations, st.FloorCutJoins, joins, invocations)
	}

	// The floored replay: one worker takes candidates in bound order,
	// skips those whose bound is under its floor, arms the kernel with
	// that floor, and reloads it after every offer.
	var fJoins, fInvocations, fCuts, fPruned uint64
	top := newTopK(DefaultK, nil)
	floor := top.Floor()
	for _, i := range boundOrder(bounds) {
		if bounds[i] < floor {
			fPruned++
			continue
		}
		kern.SetFloor(floor)
		kern.Reset(nil, lists[i])
		set, score, ok := kern.Join()
		fJoins++
		fInvocations += uint64(kern.Invocations())
		if kern.FloorCut() {
			fCuts++
		}
		if ok {
			top.offer(docs[i], score, set)
			floor = top.Floor()
		}
	}
	if fCuts == 0 || fInvocations >= invocations {
		t.Fatalf("floored replay: %d cuts, %d invocations against %d floorless — the corpus does not exercise the cut", fCuts, fInvocations, invocations)
	}
	e = New(compact, Config{Workers: 1})
	if _, err := e.Search(ctx, Query{Concepts: concepts, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JoinsRun != fJoins || st.KernelInvocations != fInvocations || st.FloorCutJoins != fCuts || st.PrunedDocs != fPruned {
		t.Fatalf("valid kernel, one worker: JoinsRun %d KernelInvocations %d FloorCutJoins %d PrunedDocs %d, replay says %d, %d, %d and %d",
			st.JoinsRun, st.KernelInvocations, st.FloorCutJoins, st.PrunedDocs, fJoins, fInvocations, fCuts, fPruned)
	}
	e = New(compact, Config{Workers: 4})
	if _, err := e.Search(ctx, Query{Concepts: concepts, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.KernelInvocations < st.JoinsRun || st.KernelInvocations > invocations || st.FloorCutJoins > st.JoinsRun || st.JoinsRun > joins {
		t.Fatalf("valid kernel, four workers: JoinsRun %d KernelInvocations %d FloorCutJoins %d outside [JoinsRun, %d], [0, JoinsRun], [0, %d]",
			st.JoinsRun, st.KernelInvocations, st.FloorCutJoins, invocations, joins)
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
