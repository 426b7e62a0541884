package engine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// TestLRUByteBound pins the byte-cost mode: the accounted total never
// exceeds the bound (it is hard — even a just-inserted oversized
// entry is evicted), refreshes re-account the delta, and Reset zeroes
// the accounting.
func TestLRUByteBound(t *testing.T) {
	cost := func(v []byte) int64 { return int64(len(v)) }
	c := newLRUBytes[int, []byte](100, 10, cost)
	c.Put(1, make([]byte, 4))
	c.Put(2, make([]byte, 4))
	if got := c.Bytes(); got != 8 {
		t.Fatalf("Bytes = %d, want 8", got)
	}
	c.Put(3, make([]byte, 4)) // 12 > 10: evicts LRU entry 1
	if got := c.Bytes(); got != 8 {
		t.Fatalf("after eviction Bytes = %d, want 8", got)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("entry 1 survived byte eviction")
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("entry 2 evicted prematurely")
	}
	// Refresh entry 2 with a bigger value: delta accounted, then the
	// bound enforced (2 was just touched, so 3 goes first).
	c.Put(2, make([]byte, 8))
	if got := c.Bytes(); got > 10 {
		t.Fatalf("after refresh Bytes = %d, exceeds bound", got)
	}
	// An entry larger than the whole bound cannot be cached at all.
	c.Put(4, make([]byte, 64))
	if _, ok := c.Get(4); ok {
		t.Fatal("oversized entry was cached past the bound")
	}
	if got, n := c.Bytes(), c.Len(); got > 10 || got < 0 {
		t.Fatalf("after oversized Put: Bytes = %d (len %d)", got, n)
	}
	c.Reset()
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("Reset left Bytes=%d Len=%d", c.Bytes(), c.Len())
	}
	// Entry-count mode reports zero cost: nothing to account with.
	plain := newLRU[int, []byte](2)
	plain.Put(1, make([]byte, 4))
	if plain.Bytes() != 0 {
		t.Fatalf("entry-count mode Bytes = %d, want 0", plain.Bytes())
	}
}

// TestEngineCacheBytes pins the engine wiring: with Config.CacheBytes
// set, repeated queries stay correct, Stats().CacheBytes reports a
// positive total within the bound, and the default config keeps the
// entry-count-only behavior (CacheBytes reads zero).
func TestEngineCacheBytes(t *testing.T) {
	compact := buildCompact(t, testCorpus(120, 11))
	concepts := testConcepts()
	// One block-served concept: byte accounting must price block
	// entries (docs + per-doc lists) as well as flat single-list ones.
	compact.AddConceptBlocks(concepts[0])
	factory := WINJoiner(scorefn.ExpWIN{Alpha: 0.07})
	const bound = 8 << 10

	bounded := New(compact, Config{Workers: 2, CacheBytes: bound})
	def := New(compact, Config{Workers: 2})
	q := Query{Concepts: concepts, Join: factory, K: 5}
	for i := 0; i < 3; i++ {
		rb, err := bounded.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := def.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "cache-bytes", rb, rd)
	}
	st := bounded.Stats()
	if st.CacheBytes <= 0 || st.CacheBytes > bound {
		t.Fatalf("CacheBytes = %d, want in (0, %d]", st.CacheBytes, bound)
	}
	if got := def.Stats().CacheBytes; got != 0 {
		t.Fatalf("default config CacheBytes = %d, want 0", got)
	}
}

// TestCacheBytesBoundsDecodedEntries holds Config.CacheBytes to a true
// upper bound on a lazily filled cache: after a query that leaves more
// blocks than fit, every document of every cached block is decoded, and
// the cache — counted from what its entries actually hold — still fits.
func TestCacheBytesBoundsDecodedEntries(t *testing.T) {
	compact := buildCompact(t, testCorpus(400, 13))
	concepts := testConcepts()
	for _, c := range concepts {
		compact.AddConceptBlocksSized(c, 16)
	}
	const bound = 12 << 10
	e := New(compact, Config{Workers: 2, CacheBytes: bound, DisablePruning: true})
	q := Query{Concepts: concepts, Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.07}), K: 5, Mode: ModeOR}
	if _, err := e.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	qs := &queryState{ctx: context.Background()}
	var resident int64
	e.lists.mu.Lock()
	for _, el := range e.lists.items {
		ent := el.Value.(*lruEntry[listKey, *listEntry]).val
		var scratch match.List
		for d := range ent.bd.Docs {
			if _, _, ok := e.docList(qs, ent, d, &scratch); !ok {
				t.Fatalf("doc %d of a cached block failed to decode", d)
			}
			if ent.state[d].Load() != slotReady {
				t.Fatalf("doc %d decoded outside its entry", d)
			}
		}
		if ent.arena.alloc > ent.room()+ent.slack {
			t.Fatalf("arena holds %d matches of a %d-match block (slack %d)", ent.arena.alloc, ent.room(), ent.slack)
		}
		resident += listEntryCost(ent) - int64(ent.room()+ent.slack-ent.arena.alloc)*matchBytes
	}
	cached := len(e.lists.items)
	e.lists.mu.Unlock()
	if st := e.Stats(); st.BlockDecodes <= uint64(cached) {
		t.Fatalf("%d blocks decoded, %d cached: the bound never evicted", st.BlockDecodes, cached)
	}
	if resident > bound || e.lists.Bytes() > bound {
		t.Fatalf("resident %d B, accounted %d B, bound %d B", resident, e.lists.Bytes(), bound)
	}
}

// TestArenaPlacesEveryDocument fills a full-size block's entry document
// by document, last first: every slot ends in the entry, not in a
// caller's scratch — a chunk is capped by the matches still unplaced,
// not by those allocated, so dropped chunk tails never starve the last
// documents — and the arena stays within the slack its cost charges.
func TestArenaPlacesEveryDocument(t *testing.T) {
	shapes := map[string]func(d int) int{
		"12 matches each": func(int) int { return 12 },
		"mixed counts":    func(d int) int { return 1 + d*7%23 },
	}
	for name, count := range shapes {
		docs := make([]int, index.BlockSize)
		lists := make([]match.List, index.BlockSize)
		for d := range docs {
			docs[d] = 3 * d
			for i := range count(d) {
				lists[d] = append(lists[d], match.Match{Loc: 5 * i, Score: 0.5})
			}
		}
		bt, err := index.DecodeBlocks(index.EncodeBlocks(docs, lists, 0))
		if err != nil {
			t.Fatal(err)
		}
		bd, err := bt.DecodeBlockDocs(0)
		if err != nil {
			t.Fatal(err)
		}
		ent := newListEntry(bd)
		e, qs := &Engine{}, &queryState{ctx: context.Background()}
		var scratch match.List
		for d := len(docs) - 1; d >= 0; d-- {
			l, _, ok := e.docList(qs, ent, d, &scratch)
			if !ok || ent.state[d].Load() != slotReady {
				t.Fatalf("%s: doc %d not placed in its entry (ok=%v)", name, d, ok)
			}
			if len(l) != len(lists[d]) || l[len(l)-1] != lists[d][len(l)-1] {
				t.Fatalf("%s: doc %d decoded %v, want %v", name, d, l, lists[d])
			}
		}
		if ent.arena.alloc > ent.room()+ent.slack {
			t.Fatalf("%s: arena allocated %d matches for a %d-match block, slack %d",
				name, ent.arena.alloc, ent.room(), ent.slack)
		}
	}
}

// TestFetchPositionIsOnlyAHint: a worker takes a candidate's document
// at the (block, directory index) its cursor shipped, and a position
// that does not hold the document — another index, another block, none
// at all — falls back to the search: the answer is the document's list
// and signature whatever the position says.
func TestFetchPositionIsOnlyAHint(t *testing.T) {
	corpus := make([]string, 24)
	for i := range corpus {
		corpus[i] = strings.Repeat("cedar ", i%5) + "amber"
	}
	compact := buildCompact(t, corpus)
	concept := index.Concept{"amber": 1}
	compact.AddConceptBlocksSized(concept, 8)
	e := New(compact, Config{Workers: 1})
	qs := &queryState{ctx: context.Background(), idx: compact, epoch: 1}
	cd := e.conceptData(qs, concept)
	f := blockFetch{blk: -1}
	for _, d := range []int{0, 9, 23, 8, 7} {
		want := match.List{{Loc: d % 5, Score: 1}}
		blk, di := int32(d/8), int32(d%8)
		for _, at := range []blockPos{{blk, di}, {blk, (di + 1) % 8}, {(blk + 1) % 3, di}, {99, -4}, {-1, 0}} {
			if l, sig, ok := f.list(e, qs, cd, d, at); !ok || !slices.Equal(l, want) || sig != join.Signature(want) {
				t.Fatalf("doc %d at %+v: %v, signature %+v (ok %v), want %v", d, at, l, sig, ok, want)
			}
		}
	}
	if _, _, ok := f.list(e, qs, cd, 24, blockPos{2, 7}); ok {
		t.Fatal("found a document the concept does not hold")
	}
}

// TestResetCacheClearsBlockState pins ResetCache against the block
// path: the caches empty (CachedLists, CacheBytes), and the repeated
// query — re-resolving skip tables and re-decoding blocks from
// scratch — returns the identical answer.
func TestResetCacheClearsBlockState(t *testing.T) {
	compact := buildCompact(t, testCorpus(120, 9))
	for _, c := range testConcepts() {
		compact.AddConceptBlocks(c)
	}
	e := New(compact, Config{Workers: 2, CacheBytes: 1 << 20})
	q := Query{Concepts: testConcepts(), Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.07}), K: 5}
	r1, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetCache()
	if st := e.Stats(); st.CachedLists != 0 || st.CacheBytes != 0 {
		t.Fatalf("ResetCache left CachedLists=%d CacheBytes=%d", st.CachedLists, st.CacheBytes)
	}
	misses := e.Stats().ConceptMisses
	r2, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "post-reset", r2, r1)
	if e.Stats().ConceptMisses == misses {
		t.Fatal("post-reset query did not re-resolve concepts")
	}
}

// overlapConcepts is testConcepts with one word shared between each
// pair of neighbouring concepts, the way lexicon expansions overlap:
// the shared word's token answers two query terms, so the
// duplicate-unaware optimum of many documents is not a valid matchset.
func overlapConcepts() []index.Concept {
	return []index.Concept{
		{"lenovo": 1, "dell": 0.9, "hewlett": 0.8, "nba": 0.7},
		{"nba": 1, "olympics": 0.9, "basketball": 0.7, "deal": 0.8},
		{"partnership": 1, "alliance": 0.8, "deal": 0.6, "dell": 0.7},
	}
}

// TestEngineCachedAllocCeiling is the decode-path regression gate
// scripts/check.sh runs: a warm-cache query must stay under a fixed
// allocation budget, so any change that sneaks per-document or
// per-posting allocation back into the cached path fails fast. The
// budget (150) has headroom over the measured value (~125, dominated
// by per-query goroutine and channel setup), but far below the
// thousands a decode regression would add. The second arm holds the
// kernel proxserve actually serves — the valid-matchset wrapper, on
// concepts that overlap so that at least a fifth of the joins go
// through the duplicate-avoidance search — to the same ceiling.
func TestEngineCachedAllocCeiling(t *testing.T) {
	compact := buildCompact(t, testCorpus(400, 12))
	for _, c := range append(testConcepts(), overlapConcepts()...) {
		compact.AddConceptBlocks(c)
	}
	spec := KernelSpec{Family: "win", Alpha: 0.07, Valid: true}
	joins, dups := 0, 0
	for _, r := range bruteForce(compact, overlapConcepts(), WINJoiner(scorefn.ExpWIN{Alpha: spec.Alpha}), compact.Docs()) {
		joins++
		if !r.Set.Valid() {
			dups++
		}
	}
	if 5*dups < joins {
		t.Fatalf("only %d of %d joins have a duplicated token: the valid arm would not gate the search", dups, joins)
	}
	for name, q := range map[string]Query{
		"unwrapped": {Concepts: testConcepts(), Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.07}), K: 10},
		"valid":     {Concepts: overlapConcepts(), Spec: spec, K: 10},
	} {
		e := New(compact, Config{Workers: 2})
		if _, err := e.Search(context.Background(), q); err != nil {
			t.Fatal(err) // warm the caches
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Search(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 150 {
			t.Errorf("%s: cached query costs %.0f allocs/op, ceiling is 150", name, allocs)
		}
		t.Logf("%s: %.0f allocs/op", name, allocs)
	}
}
