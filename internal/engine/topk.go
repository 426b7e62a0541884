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
// The heap also publishes the pruning floor: its weakest kept entry
// (score, doc) once k documents are held, (-Inf, MaxInt) before that.
// Screens take it as a floorEntry snapshot and compare a document's
// bound against bar(doc) — "ranks strictly below the k-th kept entry in
// result order", the rule offer applies after the join. The score alone
// is also kept as float bits in an atomic for offer's pre-screen.
// Because the kept set only ever improves, the entry is monotone in
// rank order, which is what makes pruning against a stale snapshot
// lossless (a document pruned against today's entry is rejected a
// fortiori by every later one).
type topK struct {
	mu    sync.Mutex
	k     int
	h     docHeap
	floor atomic.Uint64 // math.Float64bits of the weakest kept score
	// floorDoc is that entry's document id. seq makes the pair readable
	// without the lock (entry): raiseFloor, under mu, bumps it to odd,
	// stores both halves, bumps it to even. A torn pair (new score, old
	// doc) would be unsound — the old doc may be larger than the new
	// one, turning a tie the document still wins into a prune — so a
	// reader that sees seq odd or changed falls back to the lock.
	floorDoc atomic.Int64
	seq      atomic.Uint64
	// shared, when non-nil, couples this heap to a fleet-wide floor
	// (Query.Floor): local floor rises are published to it, and Floor()
	// returns whichever of the two is higher. Sharing is sound because
	// both floors are monotone and every value either holds is the k-th
	// best score of real kept documents somewhere in the fleet.
	shared *GlobalFloor
}

// newTopK sizes the heap for min(k, 64) entries and lets it grow by
// append: a K near MaxK over a few candidates pays for the entries it
// keeps, not for k.
func newTopK(k int, shared *GlobalFloor) *topK {
	t := &topK{k: k, h: make(docHeap, 0, min(k, 64)), shared: shared}
	t.floor.Store(math.Float64bits(math.Inf(-1)))
	t.floorDoc.Store(math.MaxInt)
	return t
}

// Floor returns the current score floor: the weakest kept score once
// the heap is full (or the shared fleet floor, when higher), -Inf
// until then. It is offer's pre-screen and the tests' probe; every
// screen that prunes before the join compares against entry().bar.
func (t *topK) Floor() float64 {
	f := math.Float64frombits(t.floor.Load())
	if t.shared != nil {
		if g := t.shared.Load(); g > f {
			return g
		}
	}
	return f
}

// floorEntry is a snapshot of the entry a document must outrank to
// enter the top-k: the heap's weakest kept (score, doc), or
// (-Inf, MaxInt) while the heap is not full. tied is the smallest
// float above score.
type floorEntry struct {
	score, tied float64
	doc         int
}

func newFloorEntry(score float64, doc int) floorEntry {
	return floorEntry{score: score, tied: math.Nextafter(score, math.Inf(1)), doc: doc}
}

// bar is the least bound document d needs to stay in the running:
// bound < bar(d) exactly when (bound, d) sorts strictly after the
// entry in result order (score desc, doc asc) — below it on score, or
// tied on score with a larger id. A tie d can still win (d < doc)
// never prunes; nor does a NaN bound or score. (At score = +Inf there
// is no float above, so ties there are kept: conservative.)
func (f floorEntry) bar(d int) float64 {
	if d > f.doc {
		return f.tied
	}
	return f.score
}

// entry returns a consistent snapshot of the pruning floor. A stale
// snapshot is merely conservative: the entry only improves in rank
// order, so bar never falls for any document. A shared fleet floor
// strictly above the local score replaces it score-only (doc =
// MaxInt): it says k documents somewhere score at least that, not
// which ids they have. At or below the local score the local entry
// stands — a document that k local entries outrank is out of this
// member's top-k, and so out of the merge, whatever the fleet holds.
func (t *topK) entry() floorEntry {
	s := t.seq.Load()
	bits, doc := t.floor.Load(), t.floorDoc.Load()
	if s&1 != 0 || t.seq.Load() != s {
		t.mu.Lock()
		bits, doc = t.floor.Load(), t.floorDoc.Load()
		t.mu.Unlock()
	}
	score := math.Float64frombits(bits)
	if t.shared != nil {
		if g := t.shared.Load(); g > score {
			return newFloorEntry(g, math.MaxInt)
		}
	}
	return newFloorEntry(score, int(doc))
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
			t.raiseFloor()
		}
		return
	}
	worst := t.h[0]
	if score > worst.Score || (score == worst.Score && doc < worst.Doc) {
		t.h[0] = DocResult{Doc: doc, Score: score, Set: set.Clone()}
		heap.Fix(&t.h, 0)
		t.raiseFloor()
	}
}

// raiseFloor publishes the heap's new weakest kept entry (caller holds
// mu, heap full) and, when the heap is coupled to a fleet, raises the
// shared floor to its score: k real documents on this member score at
// least that, so the fleet's merged k-th best does too.
func (t *topK) raiseFloor() {
	root := &t.h[0]
	t.seq.Add(1)
	t.floor.Store(math.Float64bits(root.Score))
	t.floorDoc.Store(int64(root.Doc))
	t.seq.Add(1)
	if t.shared != nil {
		t.shared.Raise(root.Score)
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
