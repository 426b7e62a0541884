package engine

import "sync"

// Cross-query decode coalescing: a singleflight layer in front of the
// block entry build. Concurrent queries sharing a concept — the common
// shape of a hot-topic traffic spike — all miss the list cache for the
// same block at once and, without coalescing, each performs its own
// identical decode. The flight group collapses those misses: the first
// goroutine to miss a (epoch, block, concept) key becomes the leader
// and builds the entry; every other goroutine arriving before the
// build completes becomes a waiter and receives the leader's entry.
// Sharing it is exactly as safe as a cache hit: the cache hands out
// the same shared entry, whose documents decode at most once into it
// (docList).
//
// Soundness under failure and cancellation:
//
//   - A leader that fails (corrupt bytes, injected panic) completes
//     the flight with ok=false; waiters degrade their own queries —
//     the same outcome as decoding the corrupt bytes themselves —
//     without double-counting the underlying decode failure.
//   - The flight is completed in a defer, so no leader outcome can
//     leave waiters blocked forever.
//   - A waiter whose own context expires abandons the flight without
//     touching the shared call: cancellation of one query can never
//     poison the result every other waiter is about to receive.
//
// Stats().CoalescedDecodes counts entry builds avoided (waiters served
// by a leader's entry); Stats().DecodeWaits counts the waits themselves,
// including those that ended in cancellation or a shared failure.

// flightCall is one in-flight entry build: the leader publishes the
// entry (or ok=false) and closes done; the channel close is the
// happens-before edge that makes the result fields safe to read.
type flightCall struct {
	done chan struct{}
	ent  *listEntry
	ok   bool
}

// flightGroup deduplicates concurrent entry builds of the same block. Keys
// reuse listKey — the same (epoch, block, concept) identity the list
// cache uses — so a flight can never conflate two distinct blocks.
type flightGroup struct {
	mu sync.Mutex
	m  map[listKey]*flightCall
}

// fetchCoalesced is the cache-miss path with coalescing on: join (or
// lead) the flight for key. The leader builds the entry, populates the
// list cache, and publishes to every waiter; the flight entry is
// removed before done closes, and the cache was populated before that,
// so a later miss on the same key hits the cache rather than building
// again — including a miss that read the cache just before the flight
// ended, which re-reads it here under the flight lock.
func (e *Engine) fetchCoalesced(qs *queryState, cd *conceptData, blk int, key listKey) (*listEntry, bool) {
	e.flights.mu.Lock()
	if c, inFlight := e.flights.m[key]; inFlight {
		e.flights.mu.Unlock()
		e.counters.decodeWaits.Add(1)
		select {
		case <-c.done:
		case <-qs.ctx.Done():
			// Abandon the flight; the shared call is untouched, so the
			// leader and the other waiters are unaffected.
			return nil, false
		}
		if !c.ok {
			// The leader hit corrupt bytes (or an injected fault). This
			// query would have failed the same way decoding itself;
			// degrade it without re-counting the leader's failure.
			qs.degraded.Store(true)
			return nil, false
		}
		e.counters.coalescedDecodes.Add(1)
		cd.fetched[blk/64].Or(1 << (blk % 64))
		return c.ent, true
	}
	// A flight that ended between this goroutine's cache miss and here
	// published its entry before it ended: take that, do not build again.
	if ent, hit := e.cachedEntry(cd, blk, key); hit {
		e.flights.mu.Unlock()
		return ent, true
	}
	c := &flightCall{done: make(chan struct{})}
	e.flights.m[key] = c
	e.flights.mu.Unlock()
	// Complete the flight unconditionally: whatever happens below,
	// waiters always wake.
	defer func() {
		e.flights.mu.Lock()
		delete(e.flights.m, key)
		e.flights.mu.Unlock()
		close(c.done)
	}()
	e.counters.listMisses.Add(1)
	ent, ok := e.buildEntry(qs, cd, blk)
	if !ok {
		return nil, false // c.ok stays false: waiters degrade
	}
	cd.fetched[blk/64].Or(1 << (blk % 64))
	// Publish to the cache before the deferred flight removal: a miss
	// that arrives after the flight disappears finds the cache warm.
	e.lists.Put(key, ent)
	c.ent, c.ok = ent, true
	return ent, true
}
