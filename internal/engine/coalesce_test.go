package engine

// White-box tests for the cross-query decode coalescing layer
// (coalesce.go) and the entries it shares. The singleflight counting tests install a flight by
// hand so waiter arrival and flight completion are fully deterministic
// — no sleeps, no racing on who becomes leader — and the barrier test
// checks the conservation invariant that survives any interleaving:
// every fetch is exactly one of a cache hit, an entry build, or a
// coalesced wait. scripts/check.sh runs the package under -race, so the
// channel-close publication of the shared result is verified too, and
// so is the per-document memo of a shared entry (TestEntryFirstTouch).

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
)

// coalesceFixture builds an engine over a block-served concept and the
// query-scoped state fetchBlock needs, without running a search.
func coalesceFixture(t *testing.T, cfg Config) (*Engine, *queryState, *conceptData) {
	t.Helper()
	corpus := make([]string, 24)
	for i := range corpus {
		corpus[i] = "amber basalt cedar"
	}
	compact := buildCompact(t, corpus)
	concept := index.Concept{"amber": 1, "basalt": 0.5}
	compact.AddConceptBlocksSized(concept, 8)
	e := New(compact, cfg)
	qs := &queryState{ctx: context.Background(), idx: compact, epoch: 1}
	cd := e.conceptData(qs, concept)
	if cd.blocks == nil {
		t.Fatal("concept not in block mode")
	}
	return e, qs, cd
}

// TestCoalesceWaitersServedByLeader pins the deterministic accounting
// of N goroutines sharing one concept's block: exactly 1 BlockDecodes
// (the leader's) and N−1 CoalescedDecodes (everyone else served the
// leader's entry). The flight is installed by hand and the test plays
// the leader, so waiter arrival and completion order are fixed — no
// racing on who builds.
func TestCoalesceWaitersServedByLeader(t *testing.T) {
	e, qs, cd := coalesceFixture(t, Config{Workers: 1})
	const n = 8
	key := listKey{epoch: qs.epoch, blk: 0, fp: cd.fp}
	call := &flightCall{done: make(chan struct{})}
	e.flights.mu.Lock()
	e.flights.m[key] = call
	e.flights.mu.Unlock()

	type fetchResult struct {
		ent *listEntry
		ok  bool
	}
	results := make(chan fetchResult, n-1)
	for g := 0; g < n-1; g++ {
		go func() {
			ent, ok := e.fetchBlock(qs, cd, 0)
			results <- fetchResult{ent, ok}
		}()
	}
	// All N−1 must register as waiters before the flight completes.
	deadline := time.Now().Add(10 * time.Second)
	for e.counters.decodeWaits.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d fetches became waiters", e.counters.decodeWaits.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}

	// The test is the Nth goroutine — the leader: one real entry build,
	// cache Put, publish, flight removal, wake.
	ent, ok := e.buildEntry(qs, cd, 0)
	if !ok {
		t.Fatal("leader build failed")
	}
	e.lists.Put(key, ent)
	call.ent, call.ok = ent, true
	e.flights.mu.Lock()
	delete(e.flights.m, key)
	e.flights.mu.Unlock()
	close(call.done)

	for g := 0; g < n-1; g++ {
		r := <-results
		if !r.ok {
			t.Fatal("waiter failed on a successful flight")
		}
		// Waiters share the leader's entry, not copies, exactly like a
		// cache hit.
		if r.ent != ent {
			t.Fatal("waiter did not receive the leader's shared entry")
		}
	}
	st := e.Stats()
	if st.BlockDecodes != 1 {
		t.Fatalf("BlockDecodes = %d, want exactly 1 for %d goroutines", st.BlockDecodes, n)
	}
	if st.CoalescedDecodes != n-1 {
		t.Fatalf("CoalescedDecodes = %d, want %d", st.CoalescedDecodes, n-1)
	}
	if st.DecodeWaits != n-1 {
		t.Fatalf("DecodeWaits = %d, want %d", st.DecodeWaits, n-1)
	}
	if st.ListHits != 0 {
		t.Fatalf("waiters touched the cache: hits=%d", st.ListHits)
	}
	if cd.fetched[0].Load()&1 == 0 {
		t.Fatal("coalesced fetch did not mark the block fetched")
	}
	if qs.degraded.Load() {
		t.Fatal("successful coalesced fetch degraded the query")
	}
}

// TestCoalesceCancelledWaiter pins the abandonment contract: a waiter
// whose context is already cancelled returns immediately without
// touching the shared call, so the flight completes normally for
// everyone else; the cancelled fetch counts as a wait but never as a
// coalesced decode, and does not degrade anything by itself.
func TestCoalesceCancelledWaiter(t *testing.T) {
	e, qs, cd := coalesceFixture(t, Config{Workers: 1})
	key := listKey{epoch: qs.epoch, blk: 0, fp: cd.fp}
	call := &flightCall{done: make(chan struct{})}
	e.flights.mu.Lock()
	e.flights.m[key] = call
	e.flights.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cqs := &queryState{ctx: ctx, idx: qs.idx, epoch: qs.epoch}
	ccd := e.conceptData(cqs, cd.concept)
	ent, ok := e.fetchBlock(cqs, ccd, 0)
	if ok || ent != nil {
		t.Fatalf("cancelled waiter returned a result: ok=%v", ok)
	}
	if cqs.degraded.Load() {
		t.Fatal("cancellation alone must not degrade (it is Partial, not Degraded)")
	}
	if got := e.counters.decodeWaits.Load(); got != 1 {
		t.Fatalf("DecodeWaits = %d, want 1", got)
	}
	if got := e.counters.coalescedDecodes.Load(); got != 0 {
		t.Fatalf("CoalescedDecodes = %d, want 0", got)
	}
	// The shared call is untouched: completing the flight still serves
	// a healthy waiter the leader's result.
	select {
	case <-call.done:
		t.Fatal("cancelled waiter completed the flight")
	default:
	}
	bd, err := cd.blocks.bt.DecodeBlockDocs(0)
	if err != nil {
		t.Fatal(err)
	}
	want := newListEntry(bd)
	call.ent, call.ok = want, true
	// Complete the flight the way the leader does: cache first, then
	// removal — so a fetch arriving after the flight is gone finds the
	// cache warm instead of building again.
	e.lists.Put(key, want)
	e.flights.mu.Lock()
	delete(e.flights.m, key)
	e.flights.mu.Unlock()
	close(call.done)
	ent, ok = e.fetchBlock(qs, cd, 0)
	if !ok || ent != want {
		t.Fatal("late fetch not served from the cache the flight populated")
	}
	if got := e.counters.listHits.Load(); got != 1 {
		t.Fatalf("ListHits = %d, want 1 (the post-flight fetch)", got)
	}
}

// TestCoalesceSharedFailureDegrades pins the failure contract: when
// the leader completes the flight with ok=false (corrupt bytes, an
// injected fault), every waiter degrades its own query — the same
// outcome as decoding the corrupt bytes itself — without counting a
// coalesced decode and without re-counting the leader's underlying
// decode failure.
func TestCoalesceSharedFailureDegrades(t *testing.T) {
	e, qs, cd := coalesceFixture(t, Config{Workers: 1})
	key := listKey{epoch: qs.epoch, blk: 0, fp: cd.fp}
	call := &flightCall{done: make(chan struct{})}
	e.flights.mu.Lock()
	e.flights.m[key] = call
	e.flights.mu.Unlock()

	const n = 4
	var wg sync.WaitGroup
	oks := make([]bool, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, oks[g] = e.fetchBlock(qs, cd, 0)
		}(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.counters.decodeWaits.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d fetches became waiters", e.counters.decodeWaits.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	// Leader fails: flight completes with ok still false.
	e.flights.mu.Lock()
	delete(e.flights.m, key)
	e.flights.mu.Unlock()
	close(call.done)
	wg.Wait()

	for g, ok := range oks {
		if ok {
			t.Fatalf("waiter %d succeeded on a failed flight", g)
		}
	}
	if !qs.degraded.Load() {
		t.Fatal("shared failure did not degrade the waiters' query")
	}
	st := e.Stats()
	if st.CoalescedDecodes != 0 {
		t.Fatalf("CoalescedDecodes = %d on a failed flight, want 0", st.CoalescedDecodes)
	}
	if st.DecodeFailures != 0 {
		t.Fatalf("waiters re-counted the leader's failure: DecodeFailures = %d", st.DecodeFailures)
	}
	if st.DecodeWaits != n {
		t.Fatalf("DecodeWaits = %d, want %d", st.DecodeWaits, n)
	}
}

// TestCoalesceRechecksCache pins the window between a cache miss and
// the flight lock: a flight that ended in between published its entry
// first, so the late miss takes that entry — a cache hit — instead of
// leading a second build.
func TestCoalesceRechecksCache(t *testing.T) {
	e, qs, cd := coalesceFixture(t, Config{Workers: 1})
	key := listKey{epoch: qs.epoch, blk: 0, fp: cd.fp}
	bd, err := cd.blocks.bt.DecodeBlockDocs(0)
	if err != nil {
		t.Fatal(err)
	}
	want := newListEntry(bd)
	e.lists.Put(key, want)
	ent, ok := e.fetchCoalesced(qs, cd, 0, key)
	if !ok || ent != want {
		t.Fatal("late miss did not take the published entry")
	}
	if st := e.Stats(); st.BlockDecodes != 0 || st.ListHits != 1 {
		t.Fatalf("BlockDecodes = %d, ListHits = %d, want 0 and 1", st.BlockDecodes, st.ListHits)
	}
}

// TestCoalesceConservation races N cold fetches of the same block with
// no hand-built flight and checks the invariant that holds under every
// interleaving: each fetch is exactly one cache hit, entry build, or
// coalesced wait; at least one real build happened; and every fetch
// got the same block's documents.
func TestCoalesceConservation(t *testing.T) {
	e, qs, cd := coalesceFixture(t, Config{Workers: 1})
	const n = 16
	var wg sync.WaitGroup
	docsOut := make([][]int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if ent, ok := e.fetchBlock(qs, cd, 0); ok {
				docsOut[g] = ent.bd.Docs
			}
		}(g)
	}
	wg.Wait()
	st := e.Stats()
	if st.BlockDecodes == 0 {
		t.Fatal("no fetch performed the decode")
	}
	if st.BlockDecodes+st.CoalescedDecodes+st.ListHits != n {
		t.Fatalf("decodes %d + coalesced %d + hits %d != %d fetches",
			st.BlockDecodes, st.CoalescedDecodes, st.ListHits, n)
	}
	want, _, err := cd.blocks.bt.DecodeBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	for g := range docsOut {
		if len(docsOut[g]) != len(want) {
			t.Fatalf("fetch %d returned %d docs, want %d", g, len(docsOut[g]), len(want))
		}
		for i := range want {
			if docsOut[g][i] != want[i] {
				t.Fatalf("fetch %d doc %d = %d, want %d", g, i, docsOut[g][i], want[i])
			}
		}
	}
	// The flight map must be empty again — leaked entries would turn
	// every future miss into a stuck waiter.
	e.flights.mu.Lock()
	leaked := len(e.flights.m)
	e.flights.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flight entries leaked", leaked)
	}
}

// TestCoalesceDisabled pins the escape hatch: with
// Config.DisableCoalescing every miss decodes for itself — no flights,
// no waits — which is the baseline BenchmarkEngineCoalesced/nocoalesce
// measures.
func TestCoalesceDisabled(t *testing.T) {
	e, qs, cd := coalesceFixture(t, Config{Workers: 1, DisableCoalescing: true})
	for i := 0; i < 3; i++ {
		if _, ok := e.fetchBlock(qs, cd, 0); !ok {
			t.Fatal("fetch failed")
		}
	}
	st := e.Stats()
	if st.DecodeWaits != 0 || st.CoalescedDecodes != 0 {
		t.Fatalf("coalescing ran while disabled: waits=%d coalesced=%d",
			st.DecodeWaits, st.CoalescedDecodes)
	}
	if st.BlockDecodes != 1 || st.ListHits != 2 {
		t.Fatalf("decodes=%d hits=%d, want 1 and 2", st.BlockDecodes, st.ListHits)
	}
}

// TestCoalesceEndToEnd drives the layer through the public Search API:
// many concurrent identical queries on a cold engine must all return
// the same (healthy) result, and the flight map must drain.
func TestCoalesceEndToEnd(t *testing.T) {
	corpus := make([]string, 60)
	for i := range corpus {
		corpus[i] = "amber basalt cedar delta"
	}
	compact := buildCompact(t, corpus)
	concept := index.Concept{"amber": 1, "basalt": 0.5}
	compact.AddConceptBlocksSized(concept, 8)
	e := New(compact, Config{Workers: 2})
	q := Query{Concepts: []index.Concept{concept}, Join: diffFamilies()[0].factory, K: 5}
	ref, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetCache()

	const n = 12
	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = e.Search(context.Background(), q)
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		assertIdentical(t, "concurrent query", results[g], ref)
		if results[g].Degraded {
			t.Fatalf("query %d degraded on a healthy index", g)
		}
	}
	e.flights.mu.Lock()
	leaked := len(e.flights.m)
	e.flights.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flight entries leaked", leaked)
	}
}

// TestEntryFirstTouch has many goroutines first-touch every document
// of one shared entry at once: each gets the document's exact list and
// signature, whether it won the slot's claim and decoded into the entry or found
// the slot claimed and decoded into its own scratch — the loser path is
// also pinned deterministically by holding a claim by hand — and the
// entry ends with every slot published, inside its arena bound.
func TestEntryFirstTouch(t *testing.T) {
	e, qs, cd := coalesceFixture(t, Config{Workers: 1})
	ent, ok := e.fetchBlock(qs, cd, 0)
	if !ok {
		t.Fatal("fetch failed")
	}
	_, want, err := cd.blocks.bt.DecodeBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	same := slices.Equal[match.List]

	// A held claim: the caller decodes into its scratch and leaves the
	// slot alone.
	ent.state[0].Store(slotClaimed)
	var scratch match.List
	l, sig, ok := e.docList(qs, ent, 0, &scratch)
	if !ok || !same(l, want[0]) || &l[0] != &scratch[0] || sig != join.Signature(want[0]) {
		t.Fatalf("claim loser got %v (ok=%v), want %v in its scratch", l, ok, want[0])
	}
	if ent.state[0].Load() != slotClaimed || ent.lists[0] != nil {
		t.Fatal("claim loser touched the slot")
	}
	ent.state[0].Store(slotEmpty)

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan string, n*len(want))
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch match.List
			for d := range want {
				dd := (d + g) % len(want)
				if l, sig, ok := e.docList(qs, ent, dd, &scratch); !ok || !same(l, want[dd]) || sig != join.Signature(want[dd]) {
					errs <- fmt.Sprintf("doc %d: got %v, signature %+v (ok=%v)", dd, l, sig, ok)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	for d := range want {
		if ent.state[d].Load() != slotReady || !same(ent.lists[d], want[d]) {
			t.Fatalf("slot %d not published with its list", d)
		}
	}
	if ent.arena.alloc > ent.room() {
		t.Fatalf("arena allocated %d matches for a block of %d", ent.arena.alloc, ent.room())
	}
	if qs.degraded.Load() || e.Stats().DecodeFailures != 0 {
		t.Fatal("healthy first touches degraded the query")
	}
}
