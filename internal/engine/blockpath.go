package engine

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"bestjoin/internal/faultinject"
	"bestjoin/internal/index"
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
// whole block.
//
// Soundness (DESIGN.md): a block's MaxScore is ≥ every per-document
// maximum inside it, the UpperBound hooks are monotone non-decreasing
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

// intersectCursors returns the documents present in every concept by
// a leapfrog walk over cursors, together with the per-list maximum
// match scores of every surviving document, flattened document-major:
// perListMax[i*len(cds)+j] is concept j's block maximum for the i-th
// candidate. No concept's corpus-wide doc-set is ever materialized.
func (e *Engine) intersectCursors(qs *queryState, cds []*conceptData) (docs []int, perListMax []float64) {
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
			return docs, perListMax
		}
		if doc > d {
			d, matched = doc, 1
		} else {
			matched++
		}
		if matched == n {
			docs = append(docs, d)
			for jj := range curs {
				perListMax = append(perListMax, curs[jj].maxAt())
				curs[jj].mark()
			}
			// Poll the context on a coarse stride: a cancelled query
			// stops generating candidates nobody will read.
			if len(docs)&0x3ff == 0 && qs.ctx.Err() != nil {
				qs.cancelled = true
				return docs, perListMax
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
// concept, and the position of the last document served from it:
// bound-tied documents keep ascending id order through dispatch, so
// consecutive jobs usually share a block — skipping the skip-table
// search and even the cache Get — and often sit at neighbouring
// positions. scratch holds a document this worker had to decode
// outside the entry (docList); it is valid until the next such decode
// for the same concept, which is after the job that asked for it ran.
type blockFetch struct {
	blk     int
	di      int
	ent     *listEntry
	scratch match.List
}

// list returns doc's match list under concept cd: locate the
// document's block, fetch its entry (worker memo → list cache → index
// the block), find the document in it, and decode its matches unless
// the entry already holds them. The memo only short-cuts the two
// searches — blocks cover disjoint id ranges and a block lists a
// document once — so the answer does not depend on what the worker
// served before. false means the document is not there (unreachable
// for a generated candidate) or a decode failed.
func (f *blockFetch) list(e *Engine, qs *queryState, cd *conceptData, doc int) (match.List, bool) {
	bt := cd.blocks.bt
	if f.blk < 0 || doc < bt.Infos[f.blk].FirstDoc || doc > bt.Infos[f.blk].LastDoc {
		blk := bt.FindBlock(doc)
		if blk < 0 {
			return nil, false
		}
		ent, ok := e.fetchBlock(qs, cd, blk)
		if !ok {
			return nil, false
		}
		f.blk, f.di, f.ent = blk, -1, ent
	}
	docs := f.ent.bd.Docs
	di := f.di + 1
	if di >= len(docs) || docs[di] != doc {
		di = sort.SearchInts(docs, doc)
		if di == len(docs) || docs[di] != doc {
			return nil, false
		}
	}
	f.di = di
	return e.docList(qs, f.ent, di, &f.scratch)
}

// fillLists completes a job's match lists on a worker — lazy
// per-document decode fanned out across the pool. A conjunctive job
// (mask == 0) has one slot per concept; a disjunctive job one slot per
// set bit of jb.mask, in ascending concept order. false means a decode
// failed and the document must be dropped.
func (e *Engine) fillLists(qs *queryState, cds []*conceptData, jb docJob, fetch []blockFetch) bool {
	s := 0
	for j, cd := range cds {
		if jb.mask != 0 && jb.mask&(1<<uint(j)) == 0 {
			continue
		}
		l, ok := fetch[j].list(e, qs, cd, jb.doc)
		if !ok {
			return false
		}
		jb.lists[s] = l
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
	return &listEntry{bd: bd, lists: make([]match.List, n), state: make([]atomic.Uint32, n),
		slack: arenaSlack(bd.Total, maxCount)}
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

// docList returns document d of entry ent, decoding it on first need.
// The goroutine that claims the slot decodes into the entry's arena
// and publishes the list with a release store; a caller that finds the
// slot claimed by someone else does not wait — it decodes into its own
// scratch.
func (e *Engine) docList(qs *queryState, ent *listEntry, d int, scratch *match.List) (match.List, bool) {
	st := &ent.state[d]
	if st.Load() == slotReady {
		return ent.lists[d], true
	}
	if st.CompareAndSwap(slotEmpty, slotClaimed) {
		n := ent.bd.Count(d)
		dst := ent.lists[d][:0] // room an earlier, failed claim took
		if cap(dst) < n {
			dst = ent.arena.take(n, ent.bd.Total)
		}
		l, ok := e.decodeDoc(qs, &ent.bd, d, dst)
		if !ok {
			ent.lists[d] = dst
			st.Store(slotEmpty)
			return nil, false
		}
		ent.lists[d] = l
		st.Store(slotReady)
		return l, true
	}
	l, ok := e.decodeDoc(qs, &ent.bd, d, (*scratch)[:0])
	if ok {
		*scratch = l
	}
	return l, ok
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
