package engine

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"bestjoin/internal/faultinject"
	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// The block-max skip layer: every concept is served through a block
// table (concept.go resolves it), so the engine never materializes a
// concept's corpus-wide doc-set or match lists. Candidate generation
// walks the skip table — whole blocks are galloped over by their
// (FirstDoc, LastDoc) range, and a block's document directory (one
// short group-varint stream) is decoded only when the walk actually
// needs ids inside it.
// Match areas are decoded lazily by the join workers — in parallel —
// and only for blocks that still matter when a worker reaches them: a
// candidate block whose block-max score upper bound has fallen strictly
// below the top-k floor is pruned below decode, its bytes never
// touched. Stats().BlocksSkipped counts those. A block that is needed
// becomes a list-cache entry — its directory and match-area offsets
// (index.BlockDocs), Stats().BlockDecodes counting each one built — and
// each of its documents decodes on first need, once, into the entry:
// a query that needs two documents of a block decodes two, not the
// whole block. A decoded document keeps its join.Sig beside it — a
// location mask and its exact maximum score — which the cache rung
// (dispatch.go) reads before every later join of the document.
//
// Soundness (DESIGN.md): a block's MaxScore is ≥ every per-document
// maximum inside it, the score caps are monotone non-decreasing
// in each per-list maximum, and the floor only rises — so a block-max
// bound strictly below the floor proves every document in the block
// loses. Equality never prunes, preserving the document-id tie-break.
// The differential suite (TestDifferentialBlocksVsFlat) proves
// block-served engines bitwise-identical to the per-document reference
// (index.Compact.QueryLists joined document by document).

// blockSet is the cached per-(epoch, concept) block state: the
// decoded skip table plus a memo of decoded block directories. The
// directory memo is shared by every query on the epoch (it lives in
// the concept cache), so it is written through atomic pointers; a
// racing double-decode is benign — both goroutines store equal
// slices.
type blockSet struct {
	bt   *index.BlockTable
	dirs []atomic.Pointer[[]int]
}

// setBlocks puts a concept's per-query state into block mode, sizing
// the candidate and fetched bitsets (one bit per block).
func (cd *conceptData) setBlocks(bs *blockSet) {
	cd.blocks = bs
	words := (bs.bt.NumBlocks() + 63) / 64
	cd.cand = make([]uint64, words)
	cd.fetched = make([]atomic.Uint64, words)
}

// ensureDir returns block blk's document directory, decoding and
// memoizing it on first need. A decode failure (corrupt in-memory
// bytes) fails the concept; the intersection then stops extending the
// candidate list — a sound subset, like every other degraded path.
func (e *Engine) ensureDir(qs *queryState, cd *conceptData, blk int) ([]int, bool) {
	if p := cd.blocks.dirs[blk].Load(); p != nil {
		return *p, true
	}
	docs, err := cd.blocks.bt.DecodeDocs(blk)
	if err != nil {
		e.counters.decodeFailures.Add(1)
		qs.degraded.Store(true)
		cd.failed = true
		return nil, false
	}
	cd.blocks.dirs[blk].Store(&docs)
	return docs, true
}

// listCursor iterates one concept's documents in ascending order for
// candidate generation: it walks the skip table, passing whole blocks
// by range without touching their bytes and decoding a directory only
// when the walk needs ids inside it.
type listCursor struct {
	cd  *conceptData
	blk int
	// dir is nil until the current block's directory is actually
	// needed: a seek that lands on a block's FirstDoc answers straight
	// from the skip entry.
	dir []int
	di  int
}

// seek positions the cursor at the first document ≥ d and returns it;
// ok is false when the concept is exhausted (or failed).
func (cu *listCursor) seek(e *Engine, qs *queryState, d int) (int, bool) {
	cd := cu.cd
	if cd.failed {
		return 0, false
	}
	infos := cd.blocks.bt.Infos
	for {
		if cu.blk == len(infos) {
			return 0, false
		}
		info := &infos[cu.blk]
		if info.LastDoc < d {
			cu.blk++
			cu.dir = nil
			continue
		}
		if cu.dir == nil {
			if d <= info.FirstDoc {
				return info.FirstDoc, true
			}
			dir, ok := e.ensureDir(qs, cd, cu.blk)
			if !ok {
				return 0, false
			}
			cu.dir, cu.di = dir, 0
		}
		for cu.di < len(cu.dir) && cu.dir[cu.di] < d {
			cu.di++
		}
		if cu.di == len(cu.dir) {
			cu.blk++
			cu.dir = nil
			continue
		}
		return cu.dir[cu.di], true
	}
}

// maxAt returns the per-list maximum the current document is bounded
// by: the containing block's MaxScore — an upper bound on the
// document's true maximum, so every bound built from it is sound, and
// constant across the block, which is what makes whole-block skipping
// possible.
func (cu *listCursor) maxAt() float64 {
	return cu.cd.blocks.bt.Infos[cu.blk].MaxScore
}

// mark records the current block as a candidate block (it contributed
// at least one candidate document). Candidate blocks never fetched by
// a worker were pruned below decode.
func (cu *listCursor) mark() {
	cu.cd.cand[cu.blk/64] |= 1 << (cu.blk % 64)
}

// blockPos is where a cursor found a candidate: its block and its index
// in the block's directory. A job carries one per list, so the worker
// finds the document in the block's entry without searching for either.
type blockPos struct{ blk, di int32 }

// at returns the cursor's current position. A cursor that answered from
// the skip entry's FirstDoc, its directory undecoded, stands at index 0.
func (cu *listCursor) at() blockPos {
	if cu.dir == nil {
		return blockPos{int32(cu.blk), 0}
	}
	return blockPos{int32(cu.blk), int32(cu.di)}
}

// blockMaxima is the per-list maxima of the candidates found at
// positions at (flattened as intersectCursors flattens them): each
// position's block MaxScore, as maxAt reads it.
func blockMaxima(cds []*conceptData, at []blockPos) []float64 {
	perListMax := make([]float64, len(at))
	for i, p := range at {
		perListMax[i] = cds[i%len(cds)].blocks.bt.Infos[p.blk].MaxScore
	}
	return perListMax
}

// intersectCursors returns the documents present in every concept by
// a leapfrog walk over cursors, together with where each cursor found
// each of them, flattened document-major: at[i*len(cds)+j] is concept
// j's (block, directory index) for the i-th candidate. No concept's
// corpus-wide doc-set is ever materialized.
func (e *Engine) intersectCursors(qs *queryState, cds []*conceptData) (docs []int, at []blockPos) {
	n := len(cds)
	for _, cd := range cds {
		if cd.failed {
			return nil, nil
		}
	}
	curs := make([]listCursor, n)
	for j := range curs {
		curs[j].cd = cds[j]
	}
	d, matched, j := 0, 0, 0
	for {
		doc, ok := curs[j].seek(e, qs, d)
		if !ok {
			return docs, at
		}
		if doc > d {
			d, matched = doc, 1
		} else {
			matched++
		}
		if matched == n {
			docs = append(docs, d)
			for jj := range curs {
				at = append(at, curs[jj].at())
				curs[jj].mark()
			}
			// Poll the context on a coarse stride: a cancelled query
			// stops generating candidates nobody will read.
			if len(docs)&0x3ff == 0 && qs.ctx.Err() != nil {
				qs.cancelled = true
				return docs, at
			}
			d++
			matched = 0
		}
		if j++; j == n {
			j = 0
		}
	}
}

// blockFetch memoizes one worker's most recent block entry per
// concept: bound-tied documents keep ascending id order through
// dispatch, so consecutive jobs usually share a block and skip the
// cache Get. scratch holds a document this worker had to decode
// outside the entry (docList); it is valid until the next such decode
// for the same concept, which is after the job that asked for it ran.
type blockFetch struct {
	blk     int
	ent     *listEntry
	scratch match.List
}

// list returns doc's match list under concept cd, with its signature:
// fetch the entry of the block the job's cursor position names (worker
// memo → list cache → index the block), take the document at the
// position's directory index, and decode its matches unless the entry
// already holds them. A position that does not hold doc falls back to
// searching the skip table and the directory, so the answer depends
// neither on the position nor on what the worker served before. false
// means the document is not there (unreachable for a generated
// candidate) or a decode failed.
func (f *blockFetch) list(e *Engine, qs *queryState, cd *conceptData, doc int, at blockPos) (match.List, join.Sig, bool) {
	bt := cd.blocks.bt
	blk, di := int(at.blk), int(at.di)
	if blk < 0 || blk >= len(bt.Infos) || doc < bt.Infos[blk].FirstDoc || doc > bt.Infos[blk].LastDoc {
		if blk = bt.FindBlock(doc); blk < 0 {
			return nil, join.Sig{}, false
		}
	}
	if blk != f.blk {
		ent, ok := e.fetchBlock(qs, cd, blk)
		if !ok {
			return nil, join.Sig{}, false
		}
		f.blk, f.ent = blk, ent
	}
	docs := f.ent.bd.Docs
	if di < 0 || di >= len(docs) || docs[di] != doc {
		di = sort.SearchInts(docs, doc)
		if di == len(docs) || docs[di] != doc {
			return nil, join.Sig{}, false
		}
	}
	return e.docList(qs, f.ent, di, &f.scratch)
}

// fillLists completes a job's match lists and their signatures on a
// worker — lazy per-document decode fanned out across the pool. A
// conjunctive job (mask == 0) has one slot per concept; a disjunctive
// job one slot per set bit of jb.mask, in ascending concept order; sigs
// takes the slots' signatures in the same order. false means a decode
// failed and the document must be dropped.
func (e *Engine) fillLists(qs *queryState, cds []*conceptData, jb docJob, fetch []blockFetch, sigs []join.Sig) bool {
	s := 0
	for j, cd := range cds {
		if jb.mask != 0 && jb.mask&(1<<uint(j)) == 0 {
			continue
		}
		l, sig, ok := fetch[j].list(e, qs, cd, jb.doc, jb.at[s])
		if !ok {
			return false
		}
		jb.lists[s], sigs[s] = l, sig
		s++
	}
	return true
}

// fetchBlock returns one block's entry via the list cache (entries are
// keyed by block index). Cache misses route through the flight group
// (coalesce.go) so concurrent misses on the same block — within one
// query's worker pool or across queries sharing a concept — index it
// once. The fetched bit records that the block was needed; candidate
// blocks with the bit still clear at query end were pruned below
// decode.
func (e *Engine) fetchBlock(qs *queryState, cd *conceptData, blk int) (*listEntry, bool) {
	key := listKey{epoch: qs.epoch, blk: blk, fp: cd.fp}
	if ent, hit := e.cachedEntry(cd, blk, key); hit {
		return ent, true
	}
	if e.coalesce {
		return e.fetchCoalesced(qs, cd, blk, key)
	}
	e.counters.listMisses.Add(1)
	ent, ok := e.buildEntry(qs, cd, blk)
	if !ok {
		return nil, false
	}
	cd.fetched[blk/64].Or(1 << (blk % 64))
	e.lists.Put(key, ent)
	return ent, true
}

// cachedEntry is the list-cache hit path: block blk's entry if the
// cache holds it, with the hit counted and the block marked fetched.
func (e *Engine) cachedEntry(cd *conceptData, blk int, key listKey) (*listEntry, bool) {
	ent, hit := e.lists.Get(key)
	if !hit || faultinject.ForceMiss(faultinject.ListCacheMiss) {
		return nil, false
	}
	e.counters.listHits.Add(1)
	cd.fetched[blk/64].Or(1 << (blk % 64))
	return ent, true
}

// buildEntry builds a list-cache entry for block blk: its directory
// and match-area offsets, no match decoded yet (Stats().BlockDecodes
// counts these). A failure (corrupt bytes) drops only the documents
// that needed this block, never the query — and never writes
// conceptData fields, which belong to the dispatcher goroutine.
func (e *Engine) buildEntry(qs *queryState, cd *conceptData, blk int) (*listEntry, bool) {
	faultinject.MaybeSleep(faultinject.DecodeLatency)
	bd, err := cd.blocks.bt.DecodeBlockDocs(blk)
	if err != nil {
		e.counters.decodeFailures.Add(1)
		qs.degraded.Store(true)
		return nil, false
	}
	e.counters.blockDecodes.Add(1)
	return newListEntry(bd), true
}

// newListEntry wraps an indexed block as a cache entry with every
// document still to decode.
func newListEntry(bd index.BlockDocs) *listEntry {
	n := len(bd.Docs)
	maxCount := 0
	for d := range n {
		maxCount = max(maxCount, bd.Count(d))
	}
	ent := &listEntry{bd: bd, lists: make([]match.List, n), state: make([]atomic.Uint32, n)}
	ent.slack = arenaSlack(ent.room(), maxCount+1)
	return ent
}

// Slot states of a listEntry document. A slot goes empty → claimed →
// ready once; a claim whose decode failed goes back to empty, keeping
// the arena room it took for the next claim, so an injected or
// transient fault never poisons the cached entry.
const (
	slotEmpty uint32 = iota
	slotClaimed
	slotReady
)

// docList returns document d of entry ent and its signature, decoding
// both on first need. The goroutine that claims the slot decodes into
// the entry's arena, with the signature in one more match's room just
// past the list (Loc holding the mask's bits, Score the maximum), and
// publishes the list with a release store; a caller that finds the slot
// claimed by someone else does not wait — it decodes into its own
// scratch and computes the signature there. The list handed out is
// capped at its length, so nothing appended to it can reach the
// signature.
func (e *Engine) docList(qs *queryState, ent *listEntry, d int, scratch *match.List) (match.List, join.Sig, bool) {
	st := &ent.state[d]
	if st.Load() == slotReady {
		l := ent.lists[d]
		n := len(l)
		sig := l[:n+1][n]
		return l[:n:n], join.Sig{Mask: uint64(sig.Loc), Max: sig.Score}, true
	}
	if st.CompareAndSwap(slotEmpty, slotClaimed) {
		n := ent.bd.Count(d)
		dst := ent.lists[d][:0] // room an earlier, failed claim took
		if cap(dst) < n+1 {
			dst = ent.arena.take(n+1, ent.room())
		}
		l, ok := e.decodeDoc(qs, &ent.bd, d, dst)
		if !ok {
			ent.lists[d] = dst
			st.Store(slotEmpty)
			return nil, join.Sig{}, false
		}
		sig := join.Signature(l)
		n = len(l)
		ent.lists[d] = append(l, match.Match{Loc: int(sig.Mask), Score: sig.Max})[:n]
		st.Store(slotReady)
		return l[:n:n], sig, true
	}
	l, ok := e.decodeDoc(qs, &ent.bd, d, (*scratch)[:0])
	if !ok {
		return nil, join.Sig{}, false
	}
	*scratch = l
	return l, join.Signature(l), true
}

// decodeDoc appends document d's matches to dst under recover (the
// ConceptDecode injection site simulates corrupt bytes here). A
// failure drops only the documents whose decode failed; each failed
// decode counts once in Stats().DecodeFailures.
func (e *Engine) decodeDoc(qs *queryState, bd *index.BlockDocs, d int, dst match.List) (l match.List, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.counters.decodeFailures.Add(1)
			qs.degraded.Store(true)
			l, ok = nil, false
		}
	}()
	faultinject.MaybePanic(faultinject.ConceptDecode)
	l, err := bd.DecodeDoc(dst, d)
	if err != nil {
		e.counters.decodeFailures.Add(1)
		qs.degraded.Store(true)
		return nil, false
	}
	return l, true
}

// matchArena is a list-cache entry's match storage: documents decoded
// into the entry take their room by bump allocation from chunks of
// plain matches (no pointers for the GC to mark) that double in size
// up to the matches still unplaced. Every document gets room in it —
// each takes room once, so the matches not yet handed out always
// cover the next one — and it allocates past the block's decoded size
// by no more than arenaSlack, which its cache cost charges up front.
type matchArena struct {
	mu     sync.Mutex
	free   match.List // the current chunk's untaken tail
	last   int        // the current chunk's size
	handed int        // matches handed out
	alloc  int        // matches allocated across chunks
}

// minArenaChunk is the smallest chunk a block's arena allocates, in
// matches.
const minArenaChunk = 32

// take returns room for n matches (length 0, capacity n) in the arena
// of a block of total matches. A chunk too short for n is dropped with
// its tail.
func (a *matchArena) take(n, total int) match.List {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) < n {
		size := min(max(n, 2*a.last, minArenaChunk), total-a.handed)
		a.free, a.last = make(match.List, size), size
		a.alloc += size
	}
	dst := a.free[:0:n]
	a.free = a.free[n:]
	a.handed += n
	return dst
}

// arenaSlack bounds how far an arena allocates past its block's total
// matches: only dropped tails overshoot, each shorter than the largest
// document. A chunk capped at the matches still unplaced holds every
// later document, so only doubling chunks — chunk i at least
// minArenaChunk·2^i and at most total matches — are ever dropped.
func arenaSlack(total, maxCount int) int {
	return bits.Len(uint(total/minArenaChunk)) * max(maxCount-1, 0)
}
