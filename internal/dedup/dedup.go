// Package dedup implements the paper's generic duplicate-avoidance
// method (Section VI). A matchset is valid if it contains no duplicate
// matches — no single token (location) matched to two query terms at
// once. The method wraps any duplicate-unaware best-join algorithm:
// run it; if the best matchset is duplicate-free, done; otherwise, for
// every duplicated token, create one modified problem instance per way
// of assigning the token to exactly one of the terms it matched
// (removing it from the other lists), rerun the algorithm on each
// instance, and recurse on instances whose results still contain
// duplicates. The best duplicate-free matchset found wins.
//
// The worst case is exponential in the number of duplicates, but — as
// the paper's Figure 8 experiment shows — realistic inputs need few
// reruns; the invocation count is surfaced so that experiment can be
// reproduced.
//
// Two entry points cover the two calling shapes: the one-shot Best /
// BestWithOptions functions, and the reusable Deduper (plus the
// kernel wrapper Wrap in kernel.go), which owns every piece of search
// state as stack-disciplined scratch and so allocates nothing per call
// once warmed, duplicates or not.
package dedup

import (
	"cmp"
	"math"
	"slices"

	"bestjoin/internal/match"
)

// Algorithm is any duplicate-unaware overall-best-matchset solver
// (join.WIN, join.MED, join.MAX curried with their scoring function).
type Algorithm func(match.Lists) (match.Set, float64, bool)

// Result is the outcome of a duplicate-avoiding best-join.
type Result struct {
	Set   match.Set
	Score float64
	OK    bool
	// Invocations counts how many times the duplicate-unaware
	// algorithm ran, the metric of the paper's Figure 8.
	Invocations int
	// Capped reports that the search stopped at MaxInvocations: Set is
	// then the best valid matchset found so far, maybe not the optimum.
	Capped bool
}

// MaxInvocations caps the number of reruns as a safety valve against
// the method's exponential worst case; the paper observes 10–12 reruns
// even at an "unrealistically high" 60% duplicate frequency, so the
// cap is far above anything realistic inputs reach.
const MaxInvocations = 100000

// maxInvocations is the cap in force; tests lower it.
var maxInvocations = MaxInvocations

// Best finds the best valid (duplicate-free) matchset by the paper's
// recursive instance-splitting method, with a sound bound: removing
// matches can only lower an instance's unconstrained optimum, so a
// subtree whose duplicate-unaware optimum does not exceed the best
// valid matchset found so far cannot contain a better valid matchset
// and is pruned. OK is false when no valid matchset exists (or the
// invocation cap was hit before one was found; Result.Capped tells the
// two apart).
func Best(alg Algorithm, lists match.Lists) Result {
	return NewDeduper().Best(alg, lists)
}

// Options tunes the duplicate-avoidance search. Best uses both
// optimizations; turning them off recovers the paper's plain recursive
// method (useful for ablation measurements — the result is identical
// either way, only the invocation count and time differ).
type Options struct {
	// Prune skips subtrees whose duplicate-unaware optimum cannot beat
	// the best valid matchset found so far.
	Prune bool
	// Memoize skips instances (identified by their removal sets)
	// already explored via a different keeper-choice path.
	Memoize bool
}

// BestWithOptions is Best with explicit search options.
func BestWithOptions(alg Algorithm, lists match.Lists, opts Options) Result {
	d := &Deduper{Opts: opts}
	return d.Best(alg, lists)
}

// Deduper is a reusable duplicate-avoidance evaluator. It owns all
// search state — duplicate groups, keeper odometers, modified
// instances, the removal path, the visited-instance memo and the
// best-matchset buffer — as scratch reused across Best calls, so a
// warmed Deduper allocates nothing, whether or not the instance has
// duplicates.
//
// Scratch discipline: the search is a depth-first recursion, so every
// arena below is a stack. A level appends what it needs, holds the
// slices it appended (never indexes the arena), and truncates back on
// return; children only ever append past their parent's data. An
// append that outgrows an arena moves it, which is harmless: the
// parent's slices keep the old backing array alive and nothing below a
// level's own mark is ever rewritten.
//
// The Set in the returned Result aliases Deduper-owned memory and is
// valid only until the next Best call; callers that keep results must
// Clone them. A Deduper is not safe for concurrent use.
//
// Best always searches to the valid optimum. Kernel.Join runs the same
// search under the floor it was armed with, where a Result that is not
// OK also means "no valid matchset reaches the floor".
type Deduper struct {
	// Opts tunes the search. NewDeduper enables both optimizations
	// (the Best defaults); the zero value runs the paper's plain
	// recursive method.
	Opts Options

	alg         Algorithm
	floor       float64 // see search; -Inf cuts nothing
	invocations int
	best        match.Set
	bestScore   float64
	found       bool
	capped      bool // the search stopped at maxInvocations
	cut         bool // the root instance's optimum fell below floor

	order   []int         // pushGroups' sort scratch, dead once it returns
	groups  []group       // stack: one run of groups per search level
	terms   []int         // stack: backing for group.terms
	keepers []int         // stack: one odometer digit per group
	lists   []match.List  // stack: list headers of modified instances
	matches []match.Match // stack: filtered lists of modified instances
	removed []removal     // stack: the removal path root → current instance

	// The visited-instance memo: different keeper-choice paths
	// frequently converge on the same modified instance, which need not
	// be solved twice. An instance is identified by its removal set in
	// canonical (term, loc) order, stored back to back in memoKeys;
	// memoTable is an open-addressed index into it whose slots are live
	// only when stamped with the current generation, so forgetting
	// everything between Best calls is one increment.
	memoKeys  []removal
	memoTable []memoSlot
	memoLen   int // live slots
	memoGen   uint32
	// hash, when set, replaces hashRemovals (tests force collisions).
	hash func([]removal) uint64
}

// removal identifies one (term, location) pair deleted from the
// original instance: every match of that term at that location.
type removal struct {
	term, loc int
}

// group is one duplicated token: its location and the terms whose
// matchset entries sit at that location.
type group struct {
	loc   int
	terms []int
}

// memoSlot locates one visited removal set, memoKeys[off:off+n], when
// gen is the Deduper's current generation, and is empty otherwise.
type memoSlot struct {
	gen    uint32
	hash   uint64
	off, n int
}

// NewDeduper returns a Deduper with the Best defaults (pruning and
// memoization enabled).
func NewDeduper() *Deduper {
	return &Deduper{Opts: Options{Prune: true, Memoize: true}}
}

// Best runs the duplicate-avoiding search over lists with alg as the
// duplicate-unaware solver. alg may return sets aliasing its own
// reused memory (a join.Kernel does): Best copies what it keeps.
func (d *Deduper) Best(alg Algorithm, lists match.Lists) Result {
	return d.search(alg, lists, math.Inf(-1))
}

// search is Best under a top-k floor (Kernel.SetFloor): an instance
// whose duplicate-unaware optimum is strictly below floor is dropped
// with everything derived from it, which by solve's bound cannot reach
// floor either. The result is the valid optimum when that is at or
// above floor and not OK otherwise, mostly after the root run alone.
func (d *Deduper) search(alg Algorithm, lists match.Lists, floor float64) Result {
	d.alg, d.floor = alg, floor
	d.invocations = 0
	d.found, d.capped, d.cut = false, false, false
	d.bestScore = 0
	// A search abandoned by a panicking alg leaves its stacks behind.
	d.groups, d.terms, d.keepers = d.groups[:0], d.terms[:0], d.keepers[:0]
	d.lists, d.matches, d.removed = d.lists[:0], d.matches[:0], d.removed[:0]
	d.memoKeys, d.memoLen = d.memoKeys[:0], 0
	if d.memoGen++; d.memoGen == 0 {
		// The counter wrapped: stamps written 2^32 calls ago would read
		// as live again, so this once the table is really wiped.
		clear(d.memoTable)
		d.memoGen = 1
	}
	d.solve(lists)
	d.alg = nil
	res := Result{OK: d.found, Invocations: d.invocations, Capped: d.capped}
	if d.found {
		res.Set, res.Score = d.best, d.bestScore
	}
	return res
}

// solve explores one instance: lists with d.removed (the whole stack)
// as the path of removals that produced it from the root.
func (d *Deduper) solve(lists match.Lists) {
	if d.Opts.Memoize && len(d.removed) > 0 && d.visited() {
		return
	}
	if d.invocations >= maxInvocations {
		d.capped = true
		return
	}
	d.invocations++
	set, score, ok := d.alg(lists)
	if !ok {
		return
	}
	// Floor: strictly below only — an equal score can still win the
	// caller's tie-break — and a NaN compares false, so it never cuts.
	if score < d.floor {
		d.cut = d.invocations == 1
		return
	}
	// Bound: every matchset of this instance (and of every instance
	// derived from it by removing more matches) scores at most
	// `score`, so a subtree that cannot beat the best valid matchset
	// found so far is pruned. With pruning disabled we still keep only
	// strictly better duplicate-free results, just without skipping
	// subtree exploration.
	if d.Opts.Prune && d.found && score <= d.bestScore {
		return
	}
	// Hot path: a duplicate-free optimum needs no group machinery at
	// all — record it (copying out of alg's possibly reused buffer)
	// and return.
	if set.Valid() {
		if !d.found || score > d.bestScore {
			d.best = append(d.best[:0], set...)
			d.bestScore, d.found = score, true
		}
		return
	}
	// The returned best matchset uses some tokens for several terms.
	// For each such token, one of its terms keeps the token and the
	// token's matches are removed from the other terms' lists; the
	// instances enumerate every combination of keepers, the first
	// group's keeper varying slowest. set may alias alg's buffer, which
	// the reruns below overwrite, but groups holds all that is needed
	// of it.
	gMark, tMark, kMark := len(d.groups), len(d.terms), len(d.keepers)
	groups, keepers := d.pushGroups(set)
	for more := true; more; more = nextKeepers(groups, keepers) {
		lMark, mMark, rMark := len(d.lists), len(d.matches), len(d.removed)
		d.solve(d.pushInstance(lists, groups, keepers))
		d.lists, d.matches, d.removed = d.lists[:lMark], d.matches[:mMark], d.removed[:rMark]
	}
	d.groups, d.terms, d.keepers = d.groups[:gMark], d.terms[:tMark], d.keepers[:kMark]
}

// Split materializes the Section VI modified instances for a matchset
// with duplicates: one instance per way of assigning each duplicated
// token to exactly one of the terms it matched (the other terms lose
// their matches at that location). It returns nil when the matchset is
// already valid. Callers that need the best-matchset-by-location
// variant of duplicate avoidance (the paper notes the problem "can be
// similarly modified") rerun their solver over each instance.
func Split(lists match.Lists, set match.Set) []match.Lists {
	// A throwaway Deduper whose instance stack is never popped: every
	// pushed instance stays live and becomes the caller's.
	var d Deduper
	groups, keepers := d.pushGroups(set)
	if len(groups) == 0 {
		return nil
	}
	var out []match.Lists
	for more := true; more; more = nextKeepers(groups, keepers) {
		out = append(out, d.pushInstance(lists, groups, keepers))
	}
	return out
}

// pushGroups pushes the duplicated tokens of a matchset — one group
// per location shared by two or more entries, in location order — and
// a zeroed keeper odometer with one digit per group. Within a group,
// terms are ordered by descending match score (ties by term index):
// keeping the token for its highest-scoring term tends to preserve the
// strongest valid matchsets, so exploring keepers in that order lets
// the search bound prune earlier.
func (d *Deduper) pushGroups(set match.Set) (groups []group, keepers []int) {
	// Sort the term indexes by (loc, score descending, term): groups are
	// then the runs of equal location, already in keeper order.
	q := len(set)
	d.terms, d.groups, d.keepers = grown(d.terms, q), grown(d.groups, q/2), grown(d.keepers, q/2)
	ord := grown(d.order[:0], q)
	for j := range set {
		ord = append(ord, j)
	}
	slices.SortFunc(ord, func(a, b int) int {
		return cmp.Or(cmp.Compare(set[a].Loc, set[b].Loc), cmp.Compare(set[b].Score, set[a].Score), cmp.Compare(a, b))
	})
	d.order = ord
	gMark, kMark := len(d.groups), len(d.keepers)
	for i := 0; i < len(ord); {
		loc := set[ord[i]].Loc
		end := i + 1
		for end < len(ord) && set[ord[end]].Loc == loc {
			end++
		}
		if end-i > 1 {
			tMark := len(d.terms)
			d.terms = append(d.terms, ord[i:end]...)
			d.groups = append(d.groups, group{loc: loc, terms: d.terms[tMark:len(d.terms):len(d.terms)]})
			d.keepers = append(d.keepers, 0)
		}
		i = end
	}
	return d.groups[gMark:len(d.groups):len(d.groups)], d.keepers[kMark:len(d.keepers):len(d.keepers)]
}

// nextKeepers advances the keeper odometer (last group fastest) and
// reports false once every combination has been produced.
func nextKeepers(groups []group, keepers []int) bool {
	for g := len(groups) - 1; g >= 0; g-- {
		if keepers[g]++; keepers[g] < len(groups[g].terms) {
			return true
		}
		keepers[g] = 0
	}
	return false
}

// pushInstance pushes the modified instance in which, for each group
// g, only groups[g].terms[keepers[g]] retains its matches at the
// group's location; every other term of the group loses its matches
// there and the loss is pushed on the removal path. Lists that lose
// nothing are shared with the parent instance.
func (d *Deduper) pushInstance(lists match.Lists, groups []group, keepers []int) match.Lists {
	lMark := len(d.lists)
	d.removed = grown(d.removed, len(lists)) // each term is removed from at most once
	d.lists = append(grown(d.lists, len(lists)), lists...)
	inst := d.lists[lMark:len(d.lists):len(d.lists)]
	for g, grp := range groups {
		for k, term := range grp.terms {
			if k == keepers[g] {
				continue
			}
			d.removed = append(d.removed, removal{term: term, loc: grp.loc})
			// A term sits in one group only (it has one matchset entry),
			// so lists[term] is still the parent's list here.
			mMark := len(d.matches)
			d.matches = grown(d.matches, len(lists[term]))
			for _, m := range lists[term] {
				if m.Loc != grp.loc {
					d.matches = append(d.matches, m)
				}
			}
			if kept := d.matches[mMark:len(d.matches):len(d.matches)]; len(kept) < len(lists[term]) {
				inst[term] = kept
			} else {
				d.matches = d.matches[:mMark]
			}
		}
	}
	return inst
}

// visited reports whether the instance identified by the current
// removal path was already explored, recording it if not. Paths that
// reach the same instance differ only in order, so the path is put in
// canonical (term, loc) order — on top of memoKeys, where it stays as
// the entry's key when new — and looked up by hash with an exact
// comparison on every hash hit: a collision costs a probe, never a
// skipped instance.
func (d *Deduper) visited() bool {
	off := len(d.memoKeys)
	d.memoKeys = append(grown(d.memoKeys, len(d.removed)), d.removed...)
	key := d.memoKeys[off:]
	slices.SortFunc(key, func(a, b removal) int {
		return cmp.Or(cmp.Compare(a.term, b.term), cmp.Compare(a.loc, b.loc))
	})
	hash := d.hash
	if hash == nil {
		hash = hashRemovals
	}
	h := hash(key)
	if 2*(d.memoLen+1) > len(d.memoTable) {
		d.growMemo()
	}
	s := d.memoSlot(h, key)
	if s.gen == d.memoGen {
		d.memoKeys = d.memoKeys[:off]
		return true
	}
	*s = memoSlot{gen: d.memoGen, hash: h, off: off, n: len(key)}
	d.memoLen++
	return false
}

// memoSlot probes for key: it returns the live slot holding it, or the
// empty slot where it belongs.
func (d *Deduper) memoSlot(h uint64, key []removal) *memoSlot {
	mask := uint64(len(d.memoTable) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &d.memoTable[i]
		if s.gen != d.memoGen || s.hash == h && slices.Equal(d.memoKeys[s.off:s.off+s.n], key) {
			return s
		}
	}
}

// growMemo doubles the memo table (from 16 slots), carrying the live
// slots over; the fresh table's zero stamps are empty under any live
// generation, which is never 0.
func (d *Deduper) growMemo() {
	old := d.memoTable
	d.memoTable = make([]memoSlot, max(16, 2*len(old)))
	for _, s := range old {
		if s.gen == d.memoGen {
			*d.memoSlot(s.hash, d.memoKeys[s.off:s.off+s.n]) = s
		}
	}
}

// grown returns s with room for n more elements. It grows by at least
// 16 at a time: kernels are built per query, and a fresh Deduper's
// dozen stacks would otherwise each pay the first few append doublings.
func grown[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, 16))
}

// hashRemovals is FNV-1a over the (term, loc) words of a canonical
// removal set.
func hashRemovals(key []removal) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range key {
		h = (h ^ uint64(r.term)) * 1099511628211
		h = (h ^ uint64(r.loc)) * 1099511628211
	}
	return h ^ h>>32 // the table indexes by the low bits
}
