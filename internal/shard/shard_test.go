package shard

// Differential harness for the scatter-gather tier: sharding is
// supposed to be invisible. The property test builds random corpora
// and random queries and asserts the N-shard coordinator's answer —
// document ids, scores (bit for bit), matchsets, tie-break order, and
// the Partial/Degraded flags — is identical to a single engine over
// the unsplit index, across conjunctive, disjunctive, and m-of-n
// evaluation, all six scoring families, one worker and several,
// pruning on and off, and with block tables built from each shard's
// postings at two block sizes.
// scripts/check.sh runs it under -race, so the shared global floor
// and the scatter goroutines are exercised for data races too.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

var shardVocab = []string{
	"amber", "basalt", "cedar", "delta", "ember", "fjord",
	"garnet", "harbor", "indigo", "jasper", "krill", "lumen",
}

// shardCorpus generates a random corpus over a small vocabulary, so
// random concepts co-occur in plenty of documents and both the
// intersection and the union paths see non-trivial candidate sets.
func shardCorpus(rng *rand.Rand) []string {
	docs := make([]string, 30+rng.Intn(50))
	for d := range docs {
		body := ""
		for i := 15 + rng.Intn(35); i > 0; i-- {
			if body != "" {
				body += " "
			}
			body += shardVocab[rng.Intn(len(shardVocab))]
		}
		docs[d] = body
	}
	return docs
}

// shardConcepts draws 1–3 random concepts of 1–3 vocabulary words
// each with scores in (0, 1].
func shardConcepts(rng *rand.Rand) []index.Concept {
	concepts := make([]index.Concept, 1+rng.Intn(3))
	for i := range concepts {
		c := index.Concept{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c[shardVocab[rng.Intn(len(shardVocab))]] = 1 - rng.Float64()
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

// shardFamilies enumerates the kernel factories under test; fresh
// factories per call because kernels are stateful.
func shardFamilies() []struct {
	name    string
	factory engine.KernelFactory
} {
	win := scorefn.ExpWIN{Alpha: 0.07}
	med := scorefn.ExpMED{Alpha: 0.05}
	max := scorefn.SumMAX{Alpha: 0.1}
	return []struct {
		name    string
		factory engine.KernelFactory
	}{
		{"WIN", engine.WINJoiner(win)},
		{"MED", engine.MEDJoiner(med)},
		{"MAX", engine.MAXJoiner(max)},
		{"ValidWIN", engine.ValidWINJoiner(win)},
		{"ValidMED", engine.ValidMEDJoiner(med)},
		{"ValidMAX", engine.ValidMAXJoiner(max)},
	}
}

// assertSameResult holds the coordinator's answer to the single
// engine's, field by field. Docs, scores, matchsets, order, and the
// Partial/Degraded flags must be bitwise identical. Candidates is
// exact only between exhaustive walks, where it counts every document
// matching the query and the shard counts partition the global count:
// so when single is the exhaustive result itself, the counts must
// match. A pruning walk's jumps make its count depend on how soon each
// shard's floor rose, so it is held between the documents returned and
// the exhaustive count.
func assertSameResult(t *testing.T, label string, sharded, single, exhaustive *engine.Result) {
	t.Helper()
	if sharded.Partial != single.Partial {
		t.Fatalf("%s: Partial %v (sharded) vs %v (single)", label, sharded.Partial, single.Partial)
	}
	if sharded.Degraded != single.Degraded {
		t.Fatalf("%s: Degraded %v (sharded) vs %v (single)", label, sharded.Degraded, single.Degraded)
	}
	if single == exhaustive && sharded.Candidates != single.Candidates {
		t.Fatalf("%s: Candidates %d (sharded) vs %d (single)", label, sharded.Candidates, single.Candidates)
	}
	if sharded.Candidates < len(sharded.Docs) || sharded.Candidates > exhaustive.Candidates {
		t.Fatalf("%s: Candidates %d (sharded), want between %d (docs returned) and %d (exhaustive)",
			label, sharded.Candidates, len(sharded.Docs), exhaustive.Candidates)
	}
	if len(sharded.Docs) != len(single.Docs) {
		t.Fatalf("%s: %d docs (sharded) vs %d (single)\nsharded: %+v\nsingle:  %+v",
			label, len(sharded.Docs), len(single.Docs), sharded.Docs, single.Docs)
	}
	for i := range sharded.Docs {
		s, u := sharded.Docs[i], single.Docs[i]
		if s.Doc != u.Doc {
			t.Fatalf("%s: rank %d doc %d (sharded) vs %d (single)\nsharded: %+v\nsingle:  %+v",
				label, i, s.Doc, u.Doc, sharded.Docs, single.Docs)
		}
		if s.Score != u.Score {
			t.Fatalf("%s: rank %d (doc %d) score %v (sharded) vs %v (single)",
				label, i, s.Doc, s.Score, u.Score)
		}
		if len(s.Set) != len(u.Set) {
			t.Fatalf("%s: rank %d (doc %d) matchset sizes differ", label, i, s.Doc)
		}
		for j := range s.Set {
			if s.Set[j] != u.Set[j] {
				t.Fatalf("%s: rank %d (doc %d) matchset %v (sharded) vs %v (single)",
					label, i, s.Doc, s.Set, u.Set)
			}
		}
	}
}

// TestShardDifferential is the core acceptance test: N ∈ {1, 2, 4}
// shards versus the single engine across AND/OR/m-of-n × all six
// scoring families × 1/4 workers × pruning on/off, over random
// corpora.
func TestShardDifferential(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(4000 + int64(trial)))
		compact := buildCompact(t, shardCorpus(rng))
		concepts := shardConcepts(rng)
		k := 1 + rng.Intn(6)
		minMatch := 1 + rng.Intn(len(concepts))

		modes := []struct {
			name string
			q    engine.Query
		}{
			{"AND", engine.Query{Mode: engine.ModeAND}},
			{"OR", engine.Query{Mode: engine.ModeOR}},
			{fmt.Sprintf("%d-of-%d", minMatch, len(concepts)),
				engine.Query{MinMatch: minMatch}},
		}
		for _, workers := range []int{1, 4} {
			for _, noprune := range []bool{false, true} {
				cfg := engine.Config{Workers: workers, DisablePruning: noprune}
				for _, fam := range shardFamilies() {
					for _, mode := range modes {
						q := mode.q
						q.Concepts = concepts
						q.Join = fam.factory
						q.K = k
						single := engine.New(compact, cfg)
						want, err := single.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						exhaustive := want
						if !noprune {
							ecfg := cfg
							ecfg.DisablePruning = true
							if exhaustive, err = engine.New(compact, ecfg).Search(context.Background(), q); err != nil {
								t.Fatal(err)
							}
						}
						for _, n := range []int{1, 2, 4} {
							coord, err := New(compact, Config{Shards: n, Engine: cfg})
							if err != nil {
								t.Fatal(err)
							}
							got, err := coord.Search(context.Background(), q)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("trial %d %s %s shards=%d workers=%d k=%d noprune=%v",
								trial, fam.name, mode.name, n, workers, k, noprune)
							assertSameResult(t, label, got, want, exhaustive)
							// Repeat the query: the warm path (per-shard
							// concept and list caches populated, shared
							// floor fresh per query) must stay identical.
							again, err := coord.Search(context.Background(), q)
							if err != nil {
								t.Fatal(err)
							}
							assertSameResult(t, label+" cached", again, want, exhaustive)
						}
					}
				}
			}
		}
	}
}

func docsEqual(a, b []engine.DocResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Score != b[i].Score || len(a[i].Set) != len(b[i].Set) {
			return false
		}
		for j := range a[i].Set {
			if a[i].Set[j] != b[i].Set[j] {
				return false
			}
		}
	}
	return true
}

// TestShardRollingReload is the zero-downtime acceptance test:
// queries running concurrently with a staggered per-shard SwapIndex
// must never fail, never degrade, and must each see exactly the old
// index's answer or the new one's — never a mix of epochs.
func TestShardRollingReload(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	v1 := buildCompact(t, shardCorpus(rng))
	v2 := buildCompact(t, shardCorpus(rng))
	q := engine.Query{
		Concepts: []index.Concept{
			{"amber": 1.0, "basalt": 0.8},
			{"cedar": 0.9, "delta": 0.7},
		},
		Join: engine.MEDJoiner(scorefn.ExpMED{Alpha: 0.05}),
		K:    8,
	}
	cfg := engine.Config{Workers: 2}
	res1, err := engine.New(v1, cfg).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := engine.New(v2, cfg).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if docsEqual(res1.Docs, res2.Docs) {
		t.Fatal("v1 and v2 rank identically — the reload test cannot distinguish epochs")
	}

	coord, err := New(v1, Config{Shards: 3, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Widen the mid-roll window: with three shards and a pause after
	// each swap, queriers overlap states where some children are on v2
	// while the published generation still pins every shard to v1.
	coord.rollHook = func(int) { time.Sleep(2 * time.Millisecond) }

	var (
		sawOld, sawNew atomic.Uint64
		stop           atomic.Bool
		wg             sync.WaitGroup
	)
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := coord.Search(context.Background(), q)
				if err != nil {
					errs <- fmt.Errorf("query failed mid-roll: %v", err)
					return
				}
				if res.Partial || res.Degraded {
					errs <- fmt.Errorf("mid-roll result flagged: partial=%v degraded=%v", res.Partial, res.Degraded)
					return
				}
				switch {
				case docsEqual(res.Docs, res1.Docs):
					sawOld.Add(1)
				case docsEqual(res.Docs, res2.Docs):
					sawNew.Add(1)
				default:
					errs <- fmt.Errorf("mixed-epoch result: %+v\nv1: %+v\nv2: %+v", res.Docs, res1.Docs, res2.Docs)
					return
				}
			}
		}()
	}

	time.Sleep(2 * time.Millisecond) // let queriers observe the old epoch
	coord.SwapIndex(v2)
	time.Sleep(2 * time.Millisecond) // and the new one
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sawOld.Load() == 0 || sawNew.Load() == 0 {
		t.Logf("epoch coverage thin: %d old, %d new (timing-dependent, not a failure)", sawOld.Load(), sawNew.Load())
	}

	// After the roll the fleet is on the new generation everywhere.
	h := coord.Health()
	if !h.Ready || h.Epoch != 1 {
		t.Fatalf("post-roll Health = %+v, want ready at epoch 1", h)
	}
	for _, sh := range h.Shards {
		if sh.Epoch != 1 || !sh.Ready {
			t.Fatalf("post-roll shard health = %+v", sh)
		}
	}
	final, err := coord.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !docsEqual(final.Docs, res2.Docs) {
		t.Fatalf("post-roll answer is not the new index's: %+v", final.Docs)
	}
	if got := coord.Stats().IndexReloads; got != 3 {
		t.Fatalf("rolled-up IndexReloads = %d, want 3 (one per shard)", got)
	}
}

// TestShardHealthAndStats covers the fleet observability surface: the
// per-shard health rows, the rolled-up counters, and the coordinator's
// own scatter/merge counters.
func TestShardHealthAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	compact := buildCompact(t, shardCorpus(rng))
	coord, err := New(compact, Config{Shards: 4, Engine: engine.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Shards() != 4 {
		t.Fatalf("Shards() = %d", coord.Shards())
	}
	h := coord.Health()
	if !h.Ready || h.Epoch != 0 || h.Docs != compact.Docs() || len(h.Shards) != 4 {
		t.Fatalf("fresh Health = %+v", h)
	}
	for i, sh := range h.Shards {
		if sh.Shard != i || sh.Epoch != 0 || !sh.Ready || sh.Docs != compact.Docs() {
			t.Fatalf("shard %d health = %+v (docs must stay global)", i, sh)
		}
	}

	q := engine.Query{
		Concepts: []index.Concept{{"amber": 1.0}, {"cedar": 0.8}},
		Join:     engine.ValidWINJoiner(scorefn.ExpWIN{Alpha: 0.07}),
		K:        5,
	}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if _, err := coord.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	st := coord.Stats()
	if st.Queries != rounds {
		t.Fatalf("Queries = %d, want %d", st.Queries, rounds)
	}
	if st.ShardQueries != rounds*4 {
		t.Fatalf("ShardQueries = %d, want %d", st.ShardQueries, rounds*4)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("Shards rollup has %d entries", len(st.Shards))
	}
	var childQueries, childEvaluated, childInvocations, childCuts uint64
	var childLatency uint64
	for _, cs := range st.Shards {
		childQueries += cs.Queries
		childEvaluated += cs.DocsEvaluated
		childInvocations += cs.KernelInvocations
		childCuts += cs.FloorCutJoins
		childLatency += cs.QueryLatency.Count
	}
	if childQueries != rounds*4 {
		t.Fatalf("child Queries sum to %d, want %d", childQueries, rounds*4)
	}
	if st.DocsEvaluated != childEvaluated {
		t.Fatalf("rolled-up DocsEvaluated %d != child sum %d", st.DocsEvaluated, childEvaluated)
	}
	if st.KernelInvocations != childInvocations || st.KernelInvocations < st.JoinsRun || st.JoinsRun == 0 {
		t.Fatalf("rolled-up KernelInvocations %d, child sum %d, JoinsRun %d", st.KernelInvocations, childInvocations, st.JoinsRun)
	}
	if st.FloorCutJoins != childCuts || st.FloorCutJoins > st.JoinsRun || st.DedupCapped != 0 {
		t.Fatalf("rolled-up FloorCutJoins %d, child sum %d, JoinsRun %d, DedupCapped %d", st.FloorCutJoins, childCuts, st.JoinsRun, st.DedupCapped)
	}
	if st.QueryLatency.Count != childLatency {
		t.Fatalf("merged latency count %d != child sum %d", st.QueryLatency.Count, childLatency)
	}
	if st.MergedCandidates == 0 {
		t.Fatal("MergedCandidates stayed zero across matching queries")
	}
	if st.PrunedDocs+st.DocsEvaluated > 0 && st.PrunedFraction < 0 {
		t.Fatalf("PrunedFraction = %v", st.PrunedFraction)
	}
}

// TestShardSearchErrors pins error propagation: a malformed query is
// rejected with the engine's validation error, deterministically, and
// no merge is attempted.
func TestShardSearchErrors(t *testing.T) {
	compact := buildCompact(t, []string{"amber cedar", "basalt delta"})
	coord, err := New(compact, Config{Shards: 2, Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Search(context.Background(), engine.Query{}); err == nil {
		t.Fatal("query with no concepts accepted")
	}
	q := engine.Query{
		Concepts: []index.Concept{{"amber": 1.0}},
		Join:     engine.WINJoiner(scorefn.ExpWIN{Alpha: 0.5}),
		MinMatch: 5, // out of range for 1 concept
	}
	if _, err := coord.Search(context.Background(), q); err == nil {
		t.Fatal("out-of-range MinMatch accepted")
	} else if errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("validation error surfaced as overload: %v", err)
	}
	// A WIN query past the kernel's width cap is refused by the
	// coordinator itself, typed, before any shard sees it.
	wide := engine.Query{Spec: engine.KernelSpec{Family: "win", Alpha: 0.5, Valid: true}}
	for i := 0; i < 25; i++ {
		wide.Concepts = append(wide.Concepts, index.Concept{"amber": 1.0})
	}
	if _, err := coord.Search(context.Background(), wide); !errors.Is(err, engine.ErrQueryTooWide) {
		t.Fatalf("25-concept WIN query: err %v, want ErrQueryTooWide", err)
	}
	// So is a K past engine.MaxK.
	big := engine.Query{Concepts: []index.Concept{{"amber": 1.0}}, Spec: wide.Spec, K: engine.MaxK + 1}
	if _, err := coord.Search(context.Background(), big); err == nil {
		t.Fatal("K past MaxK accepted")
	}
	if st := coord.Stats(); st.ShardQueries != 4 || st.JoinPanics != 0 {
		t.Fatalf("too-wide or too-deep query reached the shards: ShardQueries %d (want the 4 of the two queries above), JoinPanics %d", st.ShardQueries, st.JoinPanics)
	}
}

// TestFirstError pins the deterministic pick: a real error beats
// overload errors (which may be fallout of scatter cancellation), and
// among equals the lowest shard index wins.
func TestFirstError(t *testing.T) {
	boom := errors.New("boom")
	over1 := fmt.Errorf("%w: shard 1", engine.ErrOverloaded)
	over2 := fmt.Errorf("%w: shard 2", engine.ErrOverloaded)
	if err := firstError([]error{nil, nil}); err != nil {
		t.Fatalf("no errors, got %v", err)
	}
	if err := firstError([]error{nil, over1, boom}); err != boom {
		t.Fatalf("real error lost to overload: %v", err)
	}
	if err := firstError([]error{nil, over1, over2}); err != over1 {
		t.Fatalf("overload pick not lowest-indexed: %v", err)
	}
}

// TestMergeTieBreak pins the merge comparator on crafted per-shard
// results: equal scores resolve toward the smaller document id, no
// matter which shard holds it.
func TestMergeTieBreak(t *testing.T) {
	c := &Coordinator{}
	a := &engine.Result{Docs: []engine.DocResult{
		{Doc: 4, Score: 2.0}, {Doc: 9, Score: 1.0},
	}, Candidates: 2, Evaluated: 2}
	b := &engine.Result{Docs: []engine.DocResult{
		{Doc: 3, Score: 2.0}, {Doc: 8, Score: 1.0},
	}, Candidates: 2, Evaluated: 2, Partial: true}
	merged := c.merge([]*engine.Result{a, b}, 3, time.Now())
	wantDocs := []int{3, 4, 8}
	if len(merged.Docs) != len(wantDocs) {
		t.Fatalf("merged %d docs, want %d: %+v", len(merged.Docs), len(wantDocs), merged.Docs)
	}
	for i, w := range wantDocs {
		if merged.Docs[i].Doc != w {
			t.Fatalf("rank %d doc %d, want %d (tie must break toward smaller id)", i, merged.Docs[i].Doc, w)
		}
	}
	if merged.Candidates != 4 || merged.Evaluated != 4 {
		t.Fatalf("counts did not sum: %+v", merged)
	}
	if !merged.Partial {
		t.Fatal("Partial flag did not OR across shards")
	}
	// k larger than the union: the merge drains both shards and stops.
	drained := c.merge([]*engine.Result{a, b}, 10, time.Now())
	if len(drained.Docs) != 4 {
		t.Fatalf("over-k merge returned %d docs", len(drained.Docs))
	}
}

// TestMergeLatency pins the histogram fold: counts sum by bucket, the
// unbounded bucket (upper 0) sorts last, and the mean is the
// count-weighted mean of the inputs.
func TestMergeLatency(t *testing.T) {
	if out := mergeLatency(nil); out.Count != 0 || out.Buckets != nil {
		t.Fatalf("empty merge = %+v", out)
	}
	merged := mergeLatency([]engine.LatencyHistogram{
		{Count: 2, MeanMicros: 10, Buckets: []engine.LatencyBucket{
			{UpperMicros: 16, Count: 1}, {UpperMicros: 0, Count: 1},
		}},
		{Count: 2, MeanMicros: 30, Buckets: []engine.LatencyBucket{
			{UpperMicros: 16, Count: 1}, {UpperMicros: 64, Count: 1},
		}},
	})
	if merged.Count != 4 || merged.MeanMicros != 20 {
		t.Fatalf("merged count/mean = %d/%v", merged.Count, merged.MeanMicros)
	}
	want := []engine.LatencyBucket{
		{UpperMicros: 16, Count: 2}, {UpperMicros: 64, Count: 1}, {UpperMicros: 0, Count: 1},
	}
	if len(merged.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", merged.Buckets)
	}
	for i := range want {
		if merged.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, merged.Buckets[i], want[i])
		}
	}
}

// TestShardOverloadPropagates runs a coordinator whose children shed
// at one in-flight query each and drives enough concurrency that
// admission rejects some scatters; the surfaced error must be
// ErrOverloaded and the coordinator must stay healthy afterwards.
func TestShardOverloadPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	compact := buildCompact(t, shardCorpus(rng))
	coord, err := New(compact, Config{Shards: 2, Engine: engine.Config{
		Workers: 1, MaxInFlight: 1, Overload: engine.OverloadShed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{
		Concepts: []index.Concept{{"amber": 1.0}, {"cedar": 0.8}},
		Join:     engine.MEDJoiner(scorefn.ExpMED{Alpha: 0.05}),
		K:        5,
	}
	var shed atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				_, err := coord.Search(context.Background(), q)
				switch {
				case err == nil:
				case errors.Is(err, engine.ErrOverloaded):
					shed.Add(1)
				default:
					errs <- fmt.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Whatever happened under pressure, an uncontended query succeeds.
	if _, err := coord.Search(context.Background(), q); err != nil {
		t.Fatalf("coordinator unhealthy after shedding: %v", err)
	}
	if shed.Load() > 0 && coord.Stats().Shed == 0 {
		t.Fatal("shed queries not visible in rolled-up Stats")
	}
}

// TestShardPublish covers the expvar bridge and its duplicate guard.
func TestShardPublish(t *testing.T) {
	compact := buildCompact(t, []string{"amber cedar"})
	coord, err := New(compact, Config{Shards: 2, Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const name = "bestjoin.shard.shard_test"
	if err := coord.Publish(name); err != nil {
		t.Fatalf("first Publish: %v", err)
	}
	if err := coord.Publish(name); err == nil {
		t.Fatal("duplicate Publish accepted")
	}
}

// TestShardDefaultCount pins that Shards ≤ 0 means one child.
func TestShardDefaultCount(t *testing.T) {
	compact := buildCompact(t, []string{"amber cedar", "basalt"})
	coord, err := New(compact, Config{Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Shards() != 1 {
		t.Fatalf("default Shards() = %d, want 1", coord.Shards())
	}
}

// TestShardEmptyAnswer pins the no-candidate path end to end: a query
// whose concepts match nothing merges to an empty, complete answer.
func TestShardEmptyAnswer(t *testing.T) {
	compact := buildCompact(t, []string{"amber cedar", "basalt delta"})
	coord, err := New(compact, Config{Shards: 2, Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{
		Concepts: []index.Concept{{"zeppelin": 1.0}},
		Join:     engine.WINJoiner(scorefn.ExpWIN{Alpha: 0.5}),
	}
	res, err := coord.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 0 || res.Partial || res.Degraded {
		t.Fatalf("empty query result = %+v", res)
	}
}

// TestWideDocIDsEndToEnd serves a corpus whose document ids straddle
// 2^32 — so every block table a shard builds carries wide values —
// through the whole path: Marshal, LoadCompact, a 3-way Partition and
// the coordinator, conjunctive and disjunctive, graded bitwise against
// joining Compact.QueryLists over the ids present.
func TestWideDocIDsEndToEnd(t *testing.T) {
	ids := []int{0, 1, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 3,
		1<<33 + 7, 1<<33 + 8, 5<<32 + 2, 1 << 39}
	rng := rand.New(rand.NewSource(61))
	ix := index.New()
	for _, id := range ids {
		words := make([]string, 8+rng.Intn(12))
		for i := range words {
			words[i] = shardVocab[rng.Intn(5)]
		}
		ix.AddText(id, strings.Join(words, " "))
	}
	built := ix.Compact()
	concepts := []index.Concept{{"amber": 1, "basalt": 0.6}, {"cedar": 1, "delta": 0.8}, {"ember": 0.9}}
	loaded, err := index.LoadCompact(built.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	reference := func(join engine.KernelFactory, minMatch int) []engine.DocResult {
		kern := join()
		var out []engine.DocResult
		for _, d := range ids {
			var sub match.Lists
			for _, l := range loaded.QueryLists(d, concepts) {
				if len(l) > 0 {
					sub = append(sub, l)
				}
			}
			if len(sub) < minMatch {
				continue
			}
			kern.Reset(nil, sub)
			if set, score, ok := kern.Join(); ok {
				out = append(out, engine.DocResult{Doc: d, Score: score, Set: set.Clone()})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			return out[i].Score > out[j].Score || (out[i].Score == out[j].Score && out[i].Doc < out[j].Doc)
		})
		return out[:min(k, len(out))]
	}
	coord, err := New(loaded, Config{Shards: 3, Engine: engine.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range shardFamilies() {
		for _, mode := range []struct {
			name     string
			q        engine.Query
			minMatch int
		}{
			{"AND", engine.Query{Mode: engine.ModeAND}, len(concepts)},
			{"OR", engine.Query{Mode: engine.ModeOR}, 1},
		} {
			q := mode.q
			q.Concepts, q.Join, q.K = concepts, fam.factory, k
			got, err := coord.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want := reference(fam.factory, mode.minMatch)
			if got.Degraded || got.Partial || len(want) == 0 || !docsEqual(got.Docs, want) {
				t.Fatalf("%s %s: degraded=%v partial=%v\ngot:  %+v\nwant: %+v",
					fam.name, mode.name, got.Degraded, got.Partial, got.Docs, want)
			}
		}
	}
}

// TestConceptStemsCappedAtCoordinator: a concept of more than
// engine.MaxConceptStems member words is refused by the coordinator
// itself, typed, before any shard sees it; one at the cap is served.
func TestConceptStemsCappedAtCoordinator(t *testing.T) {
	coord, err := New(buildCompact(t, []string{"amber cedar", "basalt amber"}), Config{Shards: 2, Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	spec := engine.KernelSpec{Family: "med", Alpha: 0.5}
	for _, tc := range []struct {
		words int
		ok    bool
	}{{engine.MaxConceptStems, true}, {engine.MaxConceptStems + 1, false}} {
		c := index.Concept{"amber": 1}
		for i := 1; i < tc.words; i++ {
			c[fmt.Sprintf("zz%dq", i)] = 0.5
		}
		before := coord.Stats().ShardQueries
		_, err := coord.Search(context.Background(), engine.Query{Concepts: []index.Concept{c}, Spec: spec})
		if tc.ok != (err == nil) || !tc.ok && !errors.Is(err, engine.ErrQueryTooWide) {
			t.Fatalf("%d member words: err %v", tc.words, err)
		}
		if reached := coord.Stats().ShardQueries - before; reached != map[bool]uint64{true: 2, false: 0}[tc.ok] {
			t.Fatalf("%d member words: %d shard queries", tc.words, reached)
		}
	}
}
