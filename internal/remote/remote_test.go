package remote

// The remote tier's contract past transparency (TestDifferential, in
// the root package, holds healthy fleets of 1–3 shards to the reference
// ranker): (1) robustness — retries, hedging, breaker, and timeouts
// behave and are counted; (2) availability — quorum answers are sound
// subsets, and a rolling restart of shard processes fails zero
// queries. The wire format's defensive decoding is pinned by table
// tests.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/refrank"
	"bestjoin/internal/shard"
)

var remoteVocab = []string{
	"amber", "basalt", "cedar", "delta", "ember", "fjord",
	"garnet", "harbor", "indigo", "jasper", "krill", "lumen",
}

func remoteCorpus(rng *rand.Rand) []string {
	docs := make([]string, 30+rng.Intn(40))
	for d := range docs {
		body := ""
		for i := 15 + rng.Intn(30); i > 0; i-- {
			if body != "" {
				body += " "
			}
			body += remoteVocab[rng.Intn(len(remoteVocab))]
		}
		docs[d] = body
	}
	return docs
}

func remoteConcepts(rng *rand.Rand) []index.Concept {
	concepts := make([]index.Concept, 1+rng.Intn(3))
	for i := range concepts {
		c := index.Concept{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c[remoteVocab[rng.Intn(len(remoteVocab))]] = 1 - rng.Float64()
		}
		concepts[i] = c
	}
	return concepts
}

func buildCompact(t testing.TB, docs []string) *index.Compact {
	t.Helper()
	ix := index.New()
	for d, body := range docs {
		ix.AddText(d, body)
	}
	return ix.Compact()
}

// startFleet partitions the index across n shard servers, each a real
// HTTP server wrapping a real engine, and returns their addresses; the
// servers close with the test.
func startFleet(t testing.TB, compact *index.Compact, n int, ecfg engine.Config) []string {
	t.Helper()
	parts, err := compact.Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(parts))
	for i, p := range parts {
		mux := http.NewServeMux()
		NewServer(engine.New(p, ecfg), ServerConfig{}).Register(mux)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs
}

// fastCfg is the shard-client config for answer-checking tests: patient
// timers, no hedging or retries — those paths have their own tests,
// and under -race a valid-join union query can legitimately run long,
// so stacked speculative attempts would only snowball load.
func fastCfg() ShardConfig {
	return ShardConfig{Timeout: 2 * time.Minute, Retries: -1, HedgeAfter: -1, Backoff: time.Millisecond}
}

// TestRemoteQuorumDegraded kills one of three shard processes and
// asserts the quorum-2 fleet still answers with a sound subset while
// the strict fleet fails; retry and failure accounting must tick.
func TestRemoteQuorumDegraded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := remoteCorpus(rng)
	compact := buildCompact(t, docs)
	full := engine.New(compact, engine.Config{Workers: 2})

	parts, err := compact.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 3)
	var dead *httptest.Server
	for i, p := range parts {
		mux := http.NewServeMux()
		NewServer(engine.New(p, engine.Config{Workers: 1}), ServerConfig{}).Register(mux)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
		if i == 1 {
			dead = ts
		}
	}
	dead.Close()

	scfg := ShardConfig{Timeout: time.Second, Backoff: time.Millisecond}
	spec := engine.KernelSpec{Family: "med", Alpha: 0.05, Valid: true}
	concepts := remoteConcepts(rng)

	strict, err := NewFleet(addrs, scfg, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Search(context.Background(),
		engine.Query{Concepts: concepts, Spec: spec, K: 5}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("strict fleet with a dead shard: err %v, want ErrUnavailable", err)
	}

	fleet, err := NewFleet(addrs, scfg, shard.Config{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := full.Search(context.Background(),
		engine.Query{Concepts: concepts, Spec: spec, K: len(docs)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Search(context.Background(),
		engine.Query{Concepts: concepts, Spec: spec, K: 5})
	if err != nil {
		t.Fatalf("quorum-2 fleet with a dead shard: %v", err)
	}
	if !res.Degraded || res.FailedShards != 1 {
		t.Fatalf("Degraded=%v FailedShards=%d, want true/1", res.Degraded, res.FailedShards)
	}
	rank := map[int]int{}
	for i, d := range fullRes.Docs {
		rank[d.Doc] = i
	}
	prev := -1
	for _, d := range res.Docs {
		i, ok := rank[d.Doc]
		if !ok || fullRes.Docs[i].Score != d.Score {
			t.Fatalf("degraded answer doc %d (score %v) not in the healthy ranking", d.Doc, d.Score)
		}
		if i <= prev {
			t.Fatalf("degraded answer breaks healthy rank order at doc %d", d.Doc)
		}
		prev = i
	}
	st := fleet.Stats()
	if st.QuorumDegraded == 0 || st.ShardFailures == 0 {
		t.Fatalf("QuorumDegraded=%d ShardFailures=%d, want both > 0", st.QuorumDegraded, st.ShardFailures)
	}
	if st.Retried == 0 {
		t.Fatalf("dead shard produced no retries; Stats %+v", st)
	}
}

// TestRemoteRetriesRecover pins the retry loop: a shard that answers
// 500 twice then recovers must yield a successful search with the
// retries counted, not an error.
func TestRemoteRetriesRecover(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	compact := buildCompact(t, remoteCorpus(rng))
	eng := engine.New(compact, engine.Config{Workers: 1})
	inner := http.NewServeMux()
	NewServer(eng, ServerConfig{}).Register(inner)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shardquery" && calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	s := NewShard(ts.URL, ShardConfig{Timeout: time.Second, Backoff: time.Millisecond, HedgeAfter: -1})
	res, err := s.Search(context.Background(), engine.Query{
		Concepts: remoteConcepts(rng),
		Spec:     engine.KernelSpec{Family: "med", Alpha: 0.05},
		K:        3,
	})
	if err != nil {
		t.Fatalf("search after transient 500s: %v", err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	if got := s.Stats().Retried; got != 2 {
		t.Fatalf("Retried = %d, want 2", got)
	}
}

// TestRemoteBreaker pins the circuit breaker: after threshold
// consecutive failed searches the client fails fast without touching
// the network, and the cooldown admits a probe that can close it.
func TestRemoteBreaker(t *testing.T) {
	var calls atomic.Int64
	healthy := atomic.Bool{}
	rng := rand.New(rand.NewSource(21))
	compact := buildCompact(t, remoteCorpus(rng))
	eng := engine.New(compact, engine.Config{Workers: 1})
	inner := http.NewServeMux()
	NewServer(eng, ServerConfig{}).Register(inner)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shardquery" {
			inner.ServeHTTP(w, r)
			return
		}
		calls.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	s := NewShard(ts.URL, ShardConfig{
		Timeout: time.Second, Retries: -1, HedgeAfter: -1,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	})
	q := engine.Query{
		Concepts: remoteConcepts(rng),
		Spec:     engine.KernelSpec{Family: "med", Alpha: 0.05},
		K:        3,
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Search(context.Background(), q); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("search %d: err %v, want ErrUnavailable", i, err)
		}
	}
	before := calls.Load()
	if _, err := s.Search(context.Background(), q); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("breaker-open search: err %v, want ErrUnavailable", err)
	}
	if calls.Load() != before {
		t.Fatalf("open breaker still hit the network (%d calls, had %d)", calls.Load(), before)
	}
	if s.Stats().BreakerOpen == 0 {
		t.Fatal("BreakerOpen not counted")
	}

	// Cooldown elapses, the shard has recovered: the half-open probe
	// must close the breaker again.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	if _, err := s.Search(context.Background(), q); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if _, err := s.Search(context.Background(), q); err != nil {
		t.Fatalf("search after breaker closed: %v", err)
	}
}

// TestRemoteHedging pins the hedge path: when the first attempt
// stalls, a duplicate launches after HedgeAfter and its fast answer
// wins — the caller never waits out the stall.
func TestRemoteHedging(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	compact := buildCompact(t, remoteCorpus(rng))
	eng := engine.New(compact, engine.Config{Workers: 1})
	inner := http.NewServeMux()
	NewServer(eng, ServerConfig{}).Register(inner)
	var first atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shardquery" && first.CompareAndSwap(false, true) {
			select { // stall the first request until the client gives up on it
			case <-r.Context().Done():
				return
			case <-time.After(5 * time.Second):
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	s := NewShard(ts.URL, ShardConfig{Timeout: 10 * time.Second, HedgeAfter: 10 * time.Millisecond})
	start := time.Now()
	_, err := s.Search(context.Background(), engine.Query{
		Concepts: remoteConcepts(rng),
		Spec:     engine.KernelSpec{Family: "med", Alpha: 0.05},
		K:        3,
	})
	if err != nil {
		t.Fatalf("hedged search: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedge did not rescue the stalled attempt: took %v", elapsed)
	}
	if s.Stats().Hedged == 0 {
		t.Fatal("Hedged not counted")
	}
}

// TestRemoteHedgeOnlyAfterHedgeAfter pins HedgeAfter as the only
// hedging trigger: after 32 fast calls, a call slower than every one
// of them but well inside HedgeAfter is not hedged. A trigger learned
// from the shard's own latency quantile would re-send it.
func TestRemoteHedgeOnlyAfterHedgeAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	compact := buildCompact(t, remoteCorpus(rng))
	eng := engine.New(compact, engine.Config{Workers: 1})
	inner := http.NewServeMux()
	NewServer(eng, ServerConfig{}).Register(inner)
	const fast = 32
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shardquery" && calls.Add(1) == fast+1 {
			time.Sleep(250 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	s := NewShard(ts.URL, ShardConfig{Timeout: time.Minute, Retries: -1, HedgeAfter: 10 * time.Second})
	q := engine.Query{
		Concepts: remoteConcepts(rng),
		Spec:     engine.KernelSpec{Family: "med", Alpha: 0.05},
		K:        3,
	}
	for i := 0; i <= fast; i++ {
		if _, err := s.Search(context.Background(), q); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
	}
	if n := calls.Load(); n != fast+1 {
		t.Fatalf("%d requests reached the shard for %d calls", n, fast+1)
	}
	if h := s.Stats().Hedged; h != 0 {
		t.Fatalf("Hedged = %d: a call inside HedgeAfter was hedged", h)
	}
}

// TestRemoteTimeoutCounted pins the per-attempt deadline budget: a
// shard slower than Timeout costs a counted timeout and retries.
func TestRemoteTimeoutCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	compact := buildCompact(t, remoteCorpus(rng))
	eng := engine.New(compact, engine.Config{Workers: 1})
	inner := http.NewServeMux()
	NewServer(eng, ServerConfig{}).Register(inner)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shardquery" && calls.Add(1) == 1 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(5 * time.Second):
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	s := NewShard(ts.URL, ShardConfig{Timeout: 30 * time.Millisecond, Backoff: time.Millisecond, HedgeAfter: -1})
	if _, err := s.Search(context.Background(), engine.Query{
		Concepts: remoteConcepts(rng),
		Spec:     engine.KernelSpec{Family: "med", Alpha: 0.05},
		K:        3,
	}); err != nil {
		t.Fatalf("search with one slow attempt: %v", err)
	}
	st := s.Stats()
	if st.ShardTimeouts == 0 || st.Retried == 0 {
		t.Fatalf("ShardTimeouts=%d Retried=%d, want both > 0", st.ShardTimeouts, st.Retried)
	}
}

// TestRemoteSwapIndexRoll rolls a remote fleet onto a new corpus
// through Coordinator.SwapIndex: each shard process receives its
// partition over /swapindex, the health gate sees them come back, and
// the post-roll fleet answers bitwise as internal/refrank ranks the new
// corpus.
func TestRemoteSwapIndexRoll(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	oldDocs := remoteCorpus(rng)
	compact := buildCompact(t, oldDocs)
	addrs := startFleet(t, compact, 2, engine.Config{Workers: 1})
	fleet, err := NewFleet(addrs, fastCfg(), shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if h := fleet.Health(); !h.Ready || h.Epoch != 0 {
		t.Fatalf("fresh remote fleet: Ready=%v Epoch=%d", h.Ready, h.Epoch)
	}

	newDocs := remoteCorpus(rng)
	newCompact := buildCompact(t, newDocs)
	fleet.SwapIndex(newCompact)

	h := fleet.Health()
	if !h.Ready || h.Epoch != 1 || h.Err != "" {
		t.Fatalf("post-roll: Ready=%v Epoch=%d Err=%q, want true/1/\"\"", h.Ready, h.Epoch, h.Err)
	}
	spec := engine.KernelSpec{Family: "max", Alpha: 0.1}
	factory, _ := spec.Factory()
	for round := 0; round < 3; round++ {
		concepts := remoteConcepts(rng)
		got, err := fleet.Search(context.Background(), engine.Query{Concepts: concepts, Spec: spec, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		want, qualifying := refrank.Rank(newCompact, concepts, len(concepts), refrank.Kernel(factory()))
		want = want[:min(5, len(want))]
		if got.Partial || got.Degraded || len(got.Docs) != len(want) || got.Candidates > qualifying {
			t.Fatalf("post-roll round %d: %+v, want %d documents of %d qualifying", round, got, len(want), qualifying)
		}
		for i, w := range want {
			if g := got.Docs[i]; g.Doc != w.Doc || g.Score != w.Score || !slices.Equal(g.Set, w.Set) {
				t.Fatalf("post-roll round %d rank %d: %+v, want %+v", round, i, g, w)
			}
		}
	}
}

// shardProc is one restartable shard process for the rolling-restart
// test: a real HTTP server on a fixed address.
type shardProc struct {
	addr string
	part *index.Compact
	hs   *http.Server
	done chan struct{}
}

func (p *shardProc) start(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		t.Fatalf("listen %s: %v", p.addr, err)
	}
	if p.addr == "" || strings.HasSuffix(p.addr, ":0") {
		p.addr = ln.Addr().String()
	}
	mux := http.NewServeMux()
	NewServer(engine.New(p.part, engine.Config{Workers: 1}), ServerConfig{}).Register(mux)
	p.hs = &http.Server{Handler: mux}
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		p.hs.Serve(ln)
	}()
}

func (p *shardProc) stop() {
	p.hs.Close()
	<-p.done
}

// TestRemoteRollingRestart is the availability acceptance test: shard
// processes restart one at a time under continuous query load, and
// with quorum 1 not a single query fails — answers during the outage
// degrade to sound subsets and snap back to the full baseline after.
func TestRemoteRollingRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	docs := remoteCorpus(rng)
	compact := buildCompact(t, docs)
	parts, err := compact.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*shardProc, 2)
	addrs := make([]string, 2)
	for i, p := range parts {
		procs[i] = &shardProc{addr: "127.0.0.1:0", part: p}
		procs[i].start(t)
		defer procs[i].stop()
		addrs[i] = procs[i].addr
	}
	// The breaker cooldown must be shorter than the pause between the
	// two restarts, or shard 0's still-open breaker overlaps shard 1's
	// outage and the fleet momentarily has no answerable shard.
	fleet, err := NewFleet(addrs,
		ShardConfig{Timeout: 2 * time.Second, Backoff: time.Millisecond, Retries: 3,
			BreakerCooldown: 10 * time.Millisecond},
		shard.Config{Quorum: 1})
	if err != nil {
		t.Fatal(err)
	}

	spec := engine.KernelSpec{Family: "med", Alpha: 0.05, Valid: true}
	concepts := remoteConcepts(rng)
	q := engine.Query{Concepts: concepts, Spec: spec, K: 5}
	baseline, err := fleet.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Degraded {
		t.Fatal("baseline over a healthy fleet is degraded")
	}

	stop := make(chan struct{})
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := fleet.Search(context.Background(), q)
				if err != nil {
					failures.Add(1)
					t.Errorf("query failed during rolling restart: %v", err)
					return
				}
				if !res.Degraded {
					// A full-fleet answer must be the baseline, bitwise —
					// restarts change availability, never content.
					if len(res.Docs) != len(baseline.Docs) {
						failures.Add(1)
						t.Errorf("full answer has %d docs, baseline %d", len(res.Docs), len(baseline.Docs))
						return
					}
					for i := range res.Docs {
						if res.Docs[i].Doc != baseline.Docs[i].Doc || res.Docs[i].Score != baseline.Docs[i].Score {
							failures.Add(1)
							t.Errorf("full answer diverges from baseline at rank %d", i)
							return
						}
					}
				}
			}
		}()
	}

	for _, p := range procs {
		p.stop()
		time.Sleep(30 * time.Millisecond) // queries run against the hole
		p.start(t)
		time.Sleep(100 * time.Millisecond) // breaker probes the restarted shard
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failures during rolling restart, want 0", failures.Load())
	}

	// Fleet healthy again: the answer must be the full baseline.
	res, err := fleet.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("post-restart fleet still answers degraded")
	}
}

// TestRemoteHealthUnreachable pins the client's health view of a dead
// address: never Ready, reason in Err.
func TestRemoteHealthUnreachable(t *testing.T) {
	s := NewShard("127.0.0.1:1", ShardConfig{Timeout: 200 * time.Millisecond})
	h := s.Health()
	if h.Ready {
		t.Fatal("unreachable shard reported Ready")
	}
	if h.Err == "" {
		t.Fatal("unreachable shard health has no Err")
	}
}

// TestQueryWidthCap: engine.MaxConcepts is the one cap on a query's
// concepts, on every entry point. 64 concepts are answered and 65
// refused with ErrQueryTooWide, AND and OR, by Engine.Search and
// shard.Coordinator.Search; the shard HTTP route answers the first and
// refuses the second with a 400.
func TestQueryWidthCap(t *testing.T) {
	compact := buildCompact(t, remoteCorpus(rand.New(rand.NewSource(53))))
	eng := engine.New(compact, engine.Config{Workers: 2})
	coord, err := shard.New(compact, shard.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewServer(eng, ServerConfig{}).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	searchers := map[string]func(context.Context, engine.Query) (*engine.Result, error){
		"engine": eng.Search, "coordinator": coord.Search,
	}
	for _, width := range []int{engine.MaxConcepts, engine.MaxConcepts + 1} {
		concepts := make([]index.Concept, width)
		for i := range concepts {
			concepts[i] = index.Concept{remoteVocab[i%len(remoteVocab)]: 1}
		}
		tooWide := width > engine.MaxConcepts
		for _, mode := range []engine.QueryMode{engine.ModeAND, engine.ModeOR} {
			q := engine.Query{Concepts: concepts, Spec: engine.KernelSpec{Family: "med", Alpha: 0.1}, K: 3, Mode: mode}
			label := fmt.Sprintf("%d concepts, mode %d", width, mode)
			for name, search := range searchers {
				if _, err := search(context.Background(), q); tooWide != errors.Is(err, engine.ErrQueryTooWide) || !tooWide && err != nil {
					t.Errorf("%s, %s: err %v, refused %v", label, name, err, tooWide)
				}
			}
			wq, err := EncodeQuery(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(wq)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/shardquery", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := map[bool]int{false: http.StatusOK, true: http.StatusBadRequest}[tooWide]; resp.StatusCode != want {
				t.Errorf("%s, /shardquery: status %d, want %d", label, resp.StatusCode, want)
			}
		}
	}
}

// TestServerRejects drives the server's defensive decode surface.
func TestServerRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	compact := buildCompact(t, remoteCorpus(rng))
	mux := http.NewServeMux()
	NewServer(engine.New(compact, engine.Config{Workers: 1}), ServerConfig{}).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/shardquery", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"concepts":`},
		{"unknown field", `{"concepts":[{"a":1}],"family":"med","alpha":0.1,"surprise":1}`},
		{"no concepts", `{"concepts":[],"family":"med","alpha":0.1}`},
		{"bad family", `{"concepts":[{"a":1}],"family":"cosine","alpha":0.1}`},
		{"bad mode", `{"concepts":[{"a":1}],"family":"med","alpha":0.1,"mode":"xor"}`},
		{"negative k", `{"concepts":[{"a":1}],"family":"med","alpha":0.1,"k":-1}`},
		{"huge k", `{"concepts":[{"a":1}],"family":"med","alpha":0.1,"k":999999999}`},
		{"min_match over n", `{"concepts":[{"a":1}],"family":"med","alpha":0.1,"min_match":5}`},
		{"negative budget", `{"concepts":[{"a":1}],"family":"med","alpha":0.1,"budget_ms":-5}`},
		{"nonfinite weight", `{"concepts":[{"a":1e999}],"family":"med","alpha":0.1}`},
		{"win too wide", `{"concepts":[` + strings.Repeat(`{"a":1},`, 24) + `{"a":1}],"family":"win","alpha":0.1,"valid":true}`},
	}
	for _, tc := range cases {
		if code := post(tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	resp, err := http.Get(ts.URL + "/shardquery")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /shardquery: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/swapindex", "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt /swapindex: status %d, want 400", resp.StatusCode)
	}
}

// TestSwapIndexRejectsRetiredShapes: /swapindex takes index bytes off
// the wire, so it accepts only a well-formed checksummed frame. The
// unframed pre-framing layout, a framed body carrying section 2
// (doc-max metadata) or section 3 (varint block tables), and one
// repeating a concept key all answer 400 and leave the served epoch
// where it was; the same postings properly framed are swapped in.
func TestSwapIndexRejectsRetiredShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	compact := buildCompact(t, remoteCorpus(rng))
	e := engine.New(compact, engine.Config{Workers: 1})
	mux := http.NewServeMux()
	NewServer(e, ServerConfig{}).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	swap := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/swapindex", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	before := e.Health().Epoch
	for name, body := range index.RejectedShapesForTest(compact) {
		if code := swap(body); code != http.StatusBadRequest {
			t.Errorf("%s body: status %d, want 400", name, code)
		}
		if got := e.Health().Epoch; got != before {
			t.Errorf("%s body moved the served epoch %d → %d", name, before, got)
		}
	}
	if code := swap(compact.Marshal()); code != http.StatusNoContent {
		t.Fatalf("framed body: status %d, want 204", code)
	}
	if got := e.Health().Epoch; got != before+1 {
		t.Errorf("framed body: epoch %d, want %d", got, before+1)
	}
}

// TestWireValidation drives the client-side result validation and the
// query encode edge cases.
func TestWireValidation(t *testing.T) {
	if _, err := EncodeQuery(engine.Query{Concepts: []index.Concept{{"a": 1}}}, 0); err == nil {
		t.Error("EncodeQuery without a kernel spec succeeded")
	}

	// A floor still at -Inf must not ride the wire (JSON cannot carry
	// it); a raised floor must, exactly.
	q := engine.Query{
		Concepts: []index.Concept{{"a": 1}},
		Spec:     engine.KernelSpec{Family: "med", Alpha: 0.1},
		Floor:    engine.NewGlobalFloor(),
	}
	wq, err := EncodeQuery(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wq.Floor != nil {
		t.Errorf("-Inf floor encoded as %v, want omitted", *wq.Floor)
	}
	q.Floor.Raise(1.25)
	if wq, err = EncodeQuery(q, 0); err != nil {
		t.Fatal(err)
	}
	if wq.Floor == nil || *wq.Floor != 1.25 {
		t.Errorf("raised floor encoded as %v, want 1.25", wq.Floor)
	}

	bad := []struct {
		name string
		wr   WireResult
	}{
		{"negative doc", WireResult{Docs: []WireDoc{{Doc: -1, Score: 1}}}},
		{"nan score", WireResult{Docs: []WireDoc{{Doc: 0, Score: math.NaN()}}}},
		{"inf score", WireResult{Docs: []WireDoc{{Doc: 0, Score: math.Inf(1)}}}},
		{"rank order", WireResult{Docs: []WireDoc{{Doc: 0, Score: 1}, {Doc: 1, Score: 2}}}},
		{"tie order", WireResult{Docs: []WireDoc{{Doc: 2, Score: 1}, {Doc: 1, Score: 1}}}},
		{"dup doc", WireResult{Docs: []WireDoc{{Doc: 1, Score: 1}, {Doc: 1, Score: 1}}}},
		{"negative count", WireResult{Candidates: -1}},
		{"negative match loc", WireResult{Docs: []WireDoc{{Doc: 0, Score: 1, Set: []WireMatch{{Loc: -1, Score: 1}}}}}},
		{"nonfinite match", WireResult{Docs: []WireDoc{{Doc: 0, Score: 1, Set: []WireMatch{{Loc: 0, Score: math.NaN()}}}}}},
	}
	for _, tc := range bad {
		if err := tc.wr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt result", tc.name)
		}
	}
	good := WireResult{Docs: []WireDoc{{Doc: 1, Score: 2}, {Doc: 0, Score: 1}, {Doc: 3, Score: 1}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
}

// TestRemoteStatsRollup checks the coordinator rollup includes both
// halves of the wire: the shard process's engine counters and the
// client's transport counters.
func TestRemoteStatsRollup(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	compact := buildCompact(t, remoteCorpus(rng))
	fleet, err := NewFleet(startFleet(t, compact, 2, engine.Config{Workers: 1}), fastCfg(), shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{
		Concepts: remoteConcepts(rng),
		Spec:     engine.KernelSpec{Family: "med", Alpha: 0.05},
		K:        3,
	}
	for i := 0; i < 3; i++ {
		if _, err := fleet.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	st := fleet.Stats()
	if st.Queries != 3 || st.ShardQueries != 6 {
		t.Fatalf("Queries=%d ShardQueries=%d, want 3/6", st.Queries, st.ShardQueries)
	}
	// The shard processes' own engine counters must cross the wire
	// into the rollup: each served 3 queries.
	var served uint64
	for _, sh := range st.Shards {
		served += sh.Queries
	}
	if served != 6 {
		t.Fatalf("shard processes report %d served queries through /shardstats, want 6", served)
	}
}

// TestWireConceptStemsCapped: the wire decode refuses a concept of more
// than engine.MaxConceptStems terms, and accepts one at the cap.
func TestWireConceptStemsCapped(t *testing.T) {
	for _, tc := range []struct {
		words int
		ok    bool
	}{{engine.MaxConceptStems, true}, {engine.MaxConceptStems + 1, false}} {
		c := index.Concept{}
		for i := 0; i < tc.words; i++ {
			c[fmt.Sprintf("w%d", i)] = 0.5
		}
		wq, err := EncodeQuery(engine.Query{Concepts: []index.Concept{c}, Spec: engine.KernelSpec{Family: "med", Alpha: 0.1}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := wq.Validate(); tc.ok != (err == nil) {
			t.Fatalf("%d terms: Validate %v", tc.words, err)
		}
	}
}
