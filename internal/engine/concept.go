package engine

import (
	"sync/atomic"

	"bestjoin/internal/faultinject"
	"bestjoin/internal/index"
)

// Per-query concept resolution: a query concept is always read through
// a block table (blockpath.go) — the concept cache's, or one built from
// the stem postings on the concept's first use in the epoch.

// conceptData is the per-query working state for one concept.
type conceptData struct {
	concept index.Concept
	fp      uint64
	failed  bool // the table build or a directory decode failed: the concept poisons its queries
	// blocks is nil only when the concept failed. cand marks blocks that
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

// conceptBlocks builds a concept's block table from the index's stem
// postings (index.Compact.ConceptBlocks). The table is held only by
// the concept cache, never written into the shared read-only index;
// two queries racing to build the same table both succeed with equal
// tables. A concept absent from the corpus resolves to an empty table.
//
// Corrupt posting bytes (the index panics on them, and the
// ConceptDecode injection site simulates them) are contained here: the
// concept is marked failed, the query degrades, the process survives,
// and ok is false. (Search has already refused non-finite weights, the
// only concepts the index builds no table for.)
func (e *Engine) conceptBlocks(qs *queryState, cd *conceptData) (bs *blockSet, ok bool) {
	defer func() {
		if r := recover(); r != nil || !ok {
			e.counters.decodeFailures.Add(1)
			qs.degraded.Store(true)
			cd.failed = true
			bs, ok = nil, false
		}
	}()
	faultinject.MaybeSleep(faultinject.DecodeLatency)
	faultinject.MaybePanic(faultinject.ConceptDecode)
	bt, ok := qs.idx.ConceptBlocks(cd.concept)
	if !ok {
		return nil, false
	}
	return &blockSet{bt: bt, dirs: make([]atomic.Pointer[[]int], bt.NumBlocks())}, true
}
