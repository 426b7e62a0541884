package join

import (
	"fmt"
	"math"

	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// MaxWINTerms is the largest query size WIN accepts. Algorithm 1
// keeps one best partial matchset per nonempty subset of query terms,
// so memory grows as 2^|Q|; the cap keeps that bounded while covering
// every realistic query (the paper evaluates up to 7 terms).
const MaxWINTerms = 24

// winNode is one link of a persistent partial-matchset chain. Chains
// are immutable, so extending a best (P∖{qj})-matchset with a new
// match costs O(1) instead of an O(|Q|) copy, preserving Algorithm 1's
// O(2^|Q|) per-match bound.
type winNode struct {
	term int
	m    match.Match
	prev *winNode
}

// toSet materializes the chain ending at n as a freshly allocated
// q-term matchset (used by the k-best search, which keeps many chains
// alive at once and so cannot share one output buffer).
func (n *winNode) toSet(q int) match.Set {
	out := make(match.Set, q)
	for c := n; c != nil; c = c.prev {
		out[c.term] = c.m
	}
	return out
}

// winState is the remembered best P-matchset for one subset P: the
// chain plus the incrementally maintained score components g_P^Σ and
// l_P^min of Algorithm 1.
type winState struct {
	set  *winNode // nil means ⊥ (no P-matchset seen yet)
	gsum float64  // Σ g_j(score(mj)) over the matchset
	lmin int      // smallest match location in the matchset
}

// winChunkSize is the chain-node arena's chunk size. Chunks are never
// reallocated once handed out, so *winNode pointers into them stay
// valid as the arena grows.
const winChunkSize = 512

// winArena is a free-list of winNodes: Algorithm 1 allocates up to
// 2^(|Q|−1) chain nodes per match, which is the dominant allocation of
// the one-shot WIN. The arena hands nodes out of fixed-size chunks and
// rewinds to the first chunk on reset, so a reused kernel recycles the
// same nodes document after document.
type winArena struct {
	chunks [][]winNode
	chunk  int // index of the chunk currently allocated from
	used   int // nodes handed out of that chunk
}

func (a *winArena) reset() { a.chunk, a.used = 0, 0 }

func (a *winArena) alloc(term int, m match.Match, prev *winNode) *winNode {
	if a.used == winChunkSize {
		a.chunk++
		a.used = 0
	}
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]winNode, winChunkSize))
	}
	n := &a.chunks[a.chunk][a.used]
	a.used++
	n.term, n.m, n.prev = term, m, prev
	return n
}

// WINKernel is the reusable Kernel for WIN scoring functions
// (Algorithm 1): it owns the 2^|Q| subset-state table, the chain-node
// arena, the g_j memo, the merged event stream, and the output
// matchset buffer. See the Kernel interface for the reuse and
// ownership contract. It is Floored: armed with a top-k floor, Join
// returns ok == false — before merging the lists or touching the subset
// table — for an instance whose window upper bound
// (scorefn.CapWIN) is strictly below the floor.
type WINKernel struct {
	fn          scorefn.WIN
	g           gMemo // g_j(score), evaluated once per distinct (term, score)
	lists       match.Lists
	states      []winState
	arena       winArena
	eventStream // SetFloor, FloorCut, WindowCut
	out         match.Set
}

// NewWINKernel returns an empty kernel bound to fn; scratch grows on
// first use and is reused from then on.
func NewWINKernel(fn scorefn.WIN) *WINKernel {
	k := &WINKernel{fn: fn}
	k.g.bind(fn)
	return k
}

// Reset loads a new instance. fn may be nil to keep the current
// scoring function, or a scorefn.WIN to swap it (which drops the g_j
// memo).
func (k *WINKernel) Reset(fn any, lists match.Lists) {
	if fn != nil {
		k.fn = fn.(scorefn.WIN)
		k.g.bind(k.fn)
	}
	k.lists = lists
}

// CutWidth is Floored.CutWidth under scorefn.CapWIN.
func (k *WINKernel) CutWidth(sigs []Sig, bar float64) (int, bool) {
	return k.cutWidth(sigs, bar, &k.g, k)
}

func (k *WINKernel) windowCap(gsum, mag float64, w int) float64 {
	return scorefn.CapWIN(k.fn, gsum, mag, w)
}

// Join solves the loaded instance exactly as the one-shot WIN does: it
// processes all matches in location order; at each match it updates,
// for every subset P of query terms containing the match's term, the
// best partial P-matchset at the current location, justified by the
// optimal substructure property of f (Definition 3).
//
// Time O(2^|Q| · Σ|Lj|), space O(|Q| · 2^|Q|) — owned by the kernel
// and reused. Join panics if the query has more than MaxWINTerms
// terms; ok is false when some list is empty, or when a floor is armed
// (SetFloor) and no matchset can reach it.
func (k *WINKernel) Join() (best match.Set, score float64, ok bool) {
	lists := k.lists
	q := len(lists)
	if q > MaxWINTerms {
		panic(fmt.Sprintf("join: WIN supports at most %d query terms, got %d", MaxWINTerms, q))
	}
	k.g.grow(q)
	if k.armed {
		if wmin, gsum, mag, ok := k.screen(lists, &k.g); ok && k.cutBy(k.windowCap(gsum, mag, wmin)) {
			return nil, 0, false
		}
	}
	if !k.load(lists) {
		return nil, 0, false
	}
	fn := k.fn
	if cap(k.states) < 1<<q {
		k.states = make([]winState, 1<<q)
	} else {
		k.states = k.states[:1<<q]
		clear(k.states)
	}
	k.arena.reset()
	if sep, isSep := fn.(scorefn.WINSeparable); isSep {
		return k.joinKeyed(sep, q)
	}
	full := 1<<q - 1
	states := k.states
	var bestNode *winNode
	bestScore := math.Inf(-1)

	for i := range k.events {
		j, m := k.events[i].Term, k.events[i].M
		g := k.g.g(j, m.Score)
		l := m.Loc
		bit := 1 << j
		rest := full &^ bit
		// Enumerate every subset P containing q_j, as P = s ∪ {q_j}
		// with s ranging over subsets of Q∖{q_j}. Reads touch only
		// states without bit j and writes only states with bit j, so
		// within one match the update order is immaterial (the paper's
		// "decreasing sizes" order is one valid choice).
		for s := rest; ; s = (s - 1) & rest {
			st := &states[s|bit]
			if s == 0 {
				// P = {q_j}: best single-term matchset at l.
				if st.set == nil || fn.F(st.gsum, float64(l-st.lmin)) < fn.F(g, 0) {
					st.set = k.arena.alloc(j, m, nil)
					st.gsum, st.lmin = g, l
				}
			} else if sub := &states[s]; sub.set != nil {
				// Either keep the previous best P-matchset (re-scored
				// at l) or extend the best (P∖{q_j})-matchset with m.
				cand := sub.gsum + g
				if st.set == nil || fn.F(st.gsum, float64(l-st.lmin)) < fn.F(cand, float64(l-sub.lmin)) {
					st.set = k.arena.alloc(j, m, sub.set)
					st.gsum, st.lmin = cand, sub.lmin
				}
			}
			if s == 0 {
				break
			}
		}
		// An overall best matchset is a best Q-matchset at the last
		// location of its own matches, so check the full set after
		// every match.
		if fs := &states[full]; fs.set != nil {
			if sc := fn.F(fs.gsum, float64(l-fs.lmin)); bestNode == nil || sc > bestScore {
				bestNode, bestScore = fs.set, sc
			}
		}
	}

	if bestNode == nil {
		return nil, 0, false
	}
	return k.emit(bestNode, q), bestScore, true
}

// joinKeyed is Join's fast path for separable scoring functions
// (scorefn.WINSeparable): F(gsum, w) = Lift(gsum − α·w) with Lift
// strictly increasing, so every F-vs-F comparison in the subset loop
// reduces to comparing raw keys gsum − α·w. The loop below is the
// generic loop with each fn.F call replaced by that key arithmetic —
// no interface dispatch and no transcendental per subset; the single
// winning key is lifted into a score once, at the end. The lifted
// score is bit-identical to the generic path's (F computes Lift of the
// same expression, per the WINSeparable contract), and the comparisons
// are equivalent because Lift is strictly increasing.
func (k *WINKernel) joinKeyed(sep scorefn.WINSeparable, q int) (best match.Set, score float64, ok bool) {
	alpha := sep.KeySlope()
	full := 1<<q - 1
	states := k.states
	var bestNode *winNode
	bestKey := math.Inf(-1)

	for i := range k.events {
		j, m := k.events[i].Term, k.events[i].M
		g := k.g.g(j, m.Score)
		l := m.Loc
		bit := 1 << j
		rest := full &^ bit
		for s := rest; ; s = (s - 1) & rest {
			st := &states[s|bit]
			if s == 0 {
				// F(g, 0) has key g − α·0 = g exactly.
				if st.set == nil || st.gsum-alpha*float64(l-st.lmin) < g {
					st.set = k.arena.alloc(j, m, nil)
					st.gsum, st.lmin = g, l
				}
			} else if sub := &states[s]; sub.set != nil {
				cand := sub.gsum + g
				if st.set == nil || st.gsum-alpha*float64(l-st.lmin) < cand-alpha*float64(l-sub.lmin) {
					st.set = k.arena.alloc(j, m, sub.set)
					st.gsum, st.lmin = cand, sub.lmin
				}
			}
			if s == 0 {
				break
			}
		}
		if fs := &states[full]; fs.set != nil {
			if key := fs.gsum - alpha*float64(l-fs.lmin); bestNode == nil || key > bestKey {
				bestNode, bestKey = fs.set, key
			}
		}
	}

	if bestNode == nil {
		return nil, 0, false
	}
	return k.emit(bestNode, q), sep.Lift(bestKey), true
}

// emit materializes the winning chain into the kernel's reused output
// buffer.
func (k *WINKernel) emit(bestNode *winNode, q int) match.Set {
	if cap(k.out) < q {
		k.out = make(match.Set, q)
	}
	k.out = k.out[:q]
	for n := bestNode; n != nil; n = n.prev {
		k.out[n.term] = n.m
	}
	return k.out
}

// WIN computes an overall best matchset under a WIN scoring function
// (Algorithm 1) by running a fresh WINKernel once — the one-shot form
// for call sites outside the document-at-a-time hot loop. The returned
// set is owned by the caller.
//
// Time O(2^|Q| · Σ|Lj|), space O(|Q| · 2^|Q|). WIN panics if the query
// has more than MaxWINTerms terms; ok is false when some list is
// empty.
func WIN(fn scorefn.WIN, lists match.Lists) (best match.Set, score float64, ok bool) {
	k := NewWINKernel(fn)
	k.lists = lists
	return k.Join()
}
