package engine

import (
	"sync/atomic"

	"bestjoin/internal/faultinject"
	"bestjoin/internal/index"
)

// Per-query concept resolution: a query concept is always read through
// a block table (blockpath.go) — the concept cache's, the index's
// registered one, or one built on demand from the raw postings.

// conceptData is the per-query working state for one concept.
type conceptData struct {
	concept index.Concept
	fp      uint64
	failed  bool // resolution or a directory decode failed: the concept poisons its queries
	// blocks is nil only when the concept failed or the query was
	// cancelled before the table was resolved. cand marks blocks that
	// contributed candidates (written only by the dispatcher goroutine
	// during candidate generation); fetched marks blocks some worker
	// actually obtained (hit or decode) — atomics, because workers race
	// on them.
	blocks  *blockSet
	cand    []uint64
	fetched []atomic.Uint64
}

// conceptData resolves a concept for this query: from the concept
// cache when possible, else through conceptBlocks, which the cache then
// remembers for the epoch. Hits and misses land in the concept-cache
// counters.
func (e *Engine) conceptData(qs *queryState, c index.Concept) *conceptData {
	cd := &conceptData{concept: c, fp: index.ConceptKey(c)}
	key := conceptKey{epoch: qs.epoch, fp: cd.fp}
	if bs, ok := e.concepts.Get(key); ok && !faultinject.ForceMiss(faultinject.ConceptCacheMiss) {
		e.counters.conceptHits.Add(1)
		cd.setBlocks(bs)
		return cd
	}
	e.counters.conceptMisses.Add(1)
	if bs, ok := e.conceptBlocks(qs, cd); ok {
		cd.setBlocks(bs)
		e.concepts.Put(key, bs)
	}
	return cd
}

// conceptBlocks resolves a concept's block table: the one registered
// in the index (index.Compact.AddConceptBlocks) when there is one, else
// a table built on demand from the concept's postings by the same
// builder — never registered into the shared read-only index, only
// held by the concept cache; two queries racing to build the same
// table both succeed with equal tables. A concept absent from the
// corpus resolves to an empty table.
//
// Two failure modes are contained here. Corrupt bytes (the index
// panics on them, and the ConceptDecode injection site simulates them)
// are recovered: the concept is marked failed, the query degrades, the
// process survives. And the build polls the query's context on a
// coarse posting stride, so a cancelled query abandons a merge nobody
// will read: it caches nothing and marks the query cancelled. ok is
// false in both cases.
func (e *Engine) conceptBlocks(qs *queryState, cd *conceptData) (bs *blockSet, ok bool) {
	fail := func() {
		e.counters.decodeFailures.Add(1)
		qs.degraded.Store(true)
		cd.failed = true
		bs, ok = nil, false
	}
	defer func() {
		if r := recover(); r != nil {
			fail()
		}
	}()
	bt, found := qs.idx.ConceptBlocks(cd.concept)
	if !found {
		faultinject.MaybeSleep(faultinject.DecodeLatency)
		faultinject.MaybePanic(faultinject.ConceptDecode)
		var err error
		if bt, err = qs.idx.BuildBlockTable(qs.ctx, cd.concept); err != nil {
			if qs.ctx.Err() != nil {
				qs.cancelled = true
			} else {
				fail()
			}
			return nil, false
		}
	}
	return &blockSet{bt: bt, dirs: make([]atomic.Pointer[[]int], bt.NumBlocks())}, true
}
