package engine

import (
	"container/heap"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"bestjoin/internal/match"
)

// topK is the query's global top-k document heap: a size-bounded
// min-heap guarded by a mutex, shared by every worker. The heap root
// is the currently weakest kept document, so most offers from losing
// documents are rejected after one comparison.
//
// The heap also publishes the pruning floor: the k-th best score once
// k documents are held, -Inf before that. It is stored as float bits
// in an atomic so the dispatcher and every worker can read it without
// taking the heap lock; because the kept set only ever improves, the
// floor is monotonically non-decreasing, which is what makes
// skip-if-bound-below-floor lossless (a document pruned against
// today's floor is rejected a fortiori by every later one).
type topK struct {
	mu    sync.Mutex
	k     int
	h     docHeap
	floor atomic.Uint64 // math.Float64bits of the current floor
	// shared, when non-nil, couples this heap to a fleet-wide floor
	// (Query.Floor): local floor rises are published to it, and Floor()
	// returns whichever of the two is higher. Sharing is sound because
	// both floors are monotone and every value either holds is the k-th
	// best score of real kept documents somewhere in the fleet.
	shared *GlobalFloor
}

func newTopK(k int, shared *GlobalFloor) *topK {
	t := &topK{k: k, h: make(docHeap, 0, k), shared: shared}
	t.floor.Store(math.Float64bits(math.Inf(-1)))
	return t
}

// Floor returns the current pruning floor: the weakest kept score once
// the heap is full (or the shared fleet floor, when higher), -Inf
// until then. Candidates whose score upper bound is strictly below the
// floor cannot enter the top-k; equality must never prune, because an
// equal-scoring document with a smaller id still displaces the weakest
// kept document.
func (t *topK) Floor() float64 {
	f := math.Float64frombits(t.floor.Load())
	if t.shared != nil {
		if g := t.shared.Load(); g > f {
			return g
		}
	}
	return f
}

// offer proposes a scored document. Ties are broken toward smaller
// document ids so concurrent schedules produce the same top-k.
//
// The hot path is the losing offer, so it is screened against the
// atomic floor before the mutex: a score strictly below the floor can
// never enter, and because the floor is monotone non-decreasing the
// lock-free read can only be more permissive than the state under the
// lock — never the reverse. Equal scores must still take the lock (a
// smaller doc id displaces the weakest kept entry). set may alias the
// worker's kernel-owned buffer, so an entering offer clones it — under
// the lock, once it is known to enter: a query has a few dozen of
// those, against thousands of offers that tie with the floor and lose
// on document id (graded scores tie often), which must not pay for a
// clone each.
func (t *topK) offer(doc int, score float64, set match.Set) {
	if score < t.Floor() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.h) < t.k {
		heap.Push(&t.h, DocResult{Doc: doc, Score: score, Set: set.Clone()})
		if len(t.h) == t.k {
			t.raiseFloor(t.h[0].Score)
		}
		return
	}
	worst := t.h[0]
	if score > worst.Score || (score == worst.Score && doc < worst.Doc) {
		t.h[0] = DocResult{Doc: doc, Score: score, Set: set.Clone()}
		heap.Fix(&t.h, 0)
		t.raiseFloor(t.h[0].Score)
	}
}

// raiseFloor publishes a new local floor — the k-th best kept score —
// and, when the heap is coupled to a fleet, raises the shared floor to
// match: k real documents on this member score at least f, so the
// fleet's merged k-th best does too.
func (t *topK) raiseFloor(f float64) {
	t.floor.Store(math.Float64bits(f))
	if t.shared != nil {
		t.shared.Raise(f)
	}
}

// results drains the heap into a best-first slice.
func (t *topK) results() []DocResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]DocResult, len(t.h))
	copy(out, t.h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

// docHeap is a min-heap by (score asc, doc desc): the root is the
// entry top-k would discard first.
type docHeap []DocResult

func (h docHeap) Len() int { return len(h) }
func (h docHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc > h[j].Doc
}
func (h docHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *docHeap) Push(x any)   { *h = append(*h, x.(DocResult)) }
func (h *docHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
