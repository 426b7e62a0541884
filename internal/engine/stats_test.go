package engine

import (
	"context"
	"testing"
	"time"

	"bestjoin/internal/dedup"
	"bestjoin/internal/scorefn"
)

// TestKernelInvocationsCounted: Stats().KernelInvocations is the sum of
// the valid-matchset kernel's per-join invocation counts — checked
// against a direct replay of every candidate — and stays 0 for an
// unwrapped kernel, so KernelInvocations/JoinsRun read off a live
// server is the paper's Figure 8 quantity.
func TestKernelInvocationsCounted(t *testing.T) {
	compact := buildCompact(t, testCorpus(200, 5))
	concepts := overlapConcepts()
	fn := scorefn.ExpWIN{Alpha: 0.07}

	e := New(compact, Config{Workers: 2, DisablePruning: true})
	if _, err := e.Search(context.Background(), Query{Concepts: concepts, Join: WINJoiner(fn)}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JoinsRun == 0 || st.KernelInvocations != 0 {
		t.Fatalf("unwrapped kernel: JoinsRun %d, KernelInvocations %d, want >0 and 0", st.JoinsRun, st.KernelInvocations)
	}

	var joins, invocations uint64
	kern := ValidWINJoiner(fn)().(*dedup.Kernel)
	for d := 0; d < compact.Docs(); d++ {
		if lists := compact.QueryLists(d, concepts); lists.Complete() {
			kern.Reset(nil, lists)
			kern.Join()
			joins++
			invocations += uint64(kern.Invocations())
		}
	}
	if invocations <= joins {
		t.Fatalf("replay: %d invocations over %d joins — no join split, the corpus does not exercise the counter", invocations, joins)
	}
	e = New(compact, Config{Workers: 2, DisablePruning: true})
	if _, err := e.Search(context.Background(), Query{Concepts: concepts, Spec: KernelSpec{Family: "win", Alpha: 0.07, Valid: true}}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JoinsRun != joins || st.KernelInvocations != invocations {
		t.Fatalf("valid kernel: JoinsRun %d KernelInvocations %d, replay says %d and %d", st.JoinsRun, st.KernelInvocations, joins, invocations)
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
