package engine

import (
	"sort"
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
// Match areas are decoded lazily, per block, by the join workers — in
// parallel — and only for blocks that still matter when a worker
// reaches them: a candidate block whose block-max score upper bound has
// fallen strictly below the top-k floor is pruned below decode, its
// bytes never touched. Stats().BlocksSkipped counts those;
// Stats().BlockDecodes counts the blocks that were decoded.
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

// blockFetch memoizes one worker's most recent block per concept, and
// the position of the last document served from it: bound-tied
// documents keep ascending id order through dispatch, so consecutive
// jobs usually share a block — skipping the skip-table search and even
// the cache Get — and often sit at neighbouring positions.
type blockFetch struct {
	blk   int
	di    int
	docs  []int
	lists []match.List
}

// list returns doc's match list under concept cd: locate
// the document's block, fetch its decoded form (worker memo → list
// cache → decode), and find the document in it. The memo only
// short-cuts the two searches — blocks cover disjoint id ranges and a
// block lists a document once — so the answer does not depend on what
// the worker served before. false means the document is not there
// (unreachable for a generated candidate) or a decode failed.
func (f *blockFetch) list(e *Engine, qs *queryState, cd *conceptData, doc int) (match.List, bool) {
	bt := cd.blocks.bt
	if f.blk < 0 || doc < bt.Infos[f.blk].FirstDoc || doc > bt.Infos[f.blk].LastDoc {
		blk := bt.FindBlock(doc)
		if blk < 0 {
			return nil, false
		}
		docs, lists, ok := e.fetchBlock(qs, cd, blk)
		if !ok {
			return nil, false
		}
		f.blk, f.di, f.docs, f.lists = blk, -1, docs, lists
	}
	di := f.di + 1
	if di >= len(f.docs) || f.docs[di] != doc {
		di = sort.SearchInts(f.docs, doc)
		if di == len(f.docs) || f.docs[di] != doc {
			return nil, false
		}
	}
	f.di = di
	return f.lists[di], true
}

// fillLists completes a job's match lists on a worker — lazy per-block
// decode fanned out across the pool. A conjunctive job (mask == 0) has
// one slot per concept; a disjunctive job one slot per set bit of
// jb.mask, in ascending concept order. false means a decode failed and
// the document must be dropped.
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

// fetchBlock returns one decoded block via the list cache (entries are
// keyed by block index). Cache misses route through the flight
// group (coalesce.go) so concurrent misses on the same block — within
// one query's worker pool or across queries sharing a concept —
// perform a single decode. The fetched bit records that the block was
// needed; candidate blocks with the bit still clear at query end were
// pruned below decode.
func (e *Engine) fetchBlock(qs *queryState, cd *conceptData, blk int) (docs []int, lists []match.List, ok bool) {
	key := listKey{epoch: qs.epoch, blk: blk, fp: cd.fp}
	if ent, hit := e.lists.Get(key); hit && !faultinject.ForceMiss(faultinject.ListCacheMiss) {
		e.counters.listHits.Add(1)
		cd.fetched[blk/64].Or(1 << (blk % 64))
		return ent.docs, ent.lists, true
	}
	if e.coalesce {
		return e.fetchCoalesced(qs, cd, blk, key)
	}
	e.counters.listMisses.Add(1)
	docs, lists, ok = e.decodeBlock(qs, cd, blk)
	if !ok {
		return nil, nil, false
	}
	cd.fetched[blk/64].Or(1 << (blk % 64))
	e.lists.Put(key, listEntry{docs: docs, lists: lists})
	return docs, lists, true
}

// decodeBlock decodes one block's match area under recover (the
// ConceptDecode injection site simulates corrupt bytes here too). A
// failure drops only the documents that needed this block, never the
// query — and never writes conceptData fields, which belong to the
// dispatcher goroutine.
func (e *Engine) decodeBlock(qs *queryState, cd *conceptData, blk int) (docs []int, lists []match.List, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.counters.decodeFailures.Add(1)
			qs.degraded.Store(true)
			docs, lists, ok = nil, nil, false
		}
	}()
	faultinject.MaybeSleep(faultinject.DecodeLatency)
	faultinject.MaybePanic(faultinject.ConceptDecode)
	d, l, err := cd.blocks.bt.DecodeBlock(blk)
	if err != nil {
		e.counters.decodeFailures.Add(1)
		qs.degraded.Store(true)
		return nil, nil, false
	}
	e.counters.blockDecodes.Add(1)
	return d, l, true
}
