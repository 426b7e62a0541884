package bestjoin_test

// Benchmarks for the concurrent indexed query engine: cold vs cached
// query latency (a stem's postings are decoded on its first use and
// kept, so repeated queries decode nothing) and worker-pool scaling (1
// worker vs GOMAXPROCS) on a synthetic corpus of 2000 documents.
//
//	go test -bench=BenchmarkEngine -benchmem

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestjoin"
	"bestjoin/internal/index"
	"bestjoin/internal/shard"
)

const engineBenchDocs = 2000

var (
	engineCorpusOnce sync.Once
	engineCompact    *bestjoin.CompactIndex
)

// engineBenchIndex builds (once) a compacted index over a dense
// synthetic corpus: 2000 documents of 300 words with three planted
// concept groups, several occurrences each, so per-document joins do
// real work and most documents are candidates.
func engineBenchIndex() *bestjoin.CompactIndex {
	engineCorpusOnce.Do(func() {
		rng := rand.New(rand.NewSource(99))
		filler := strings.Fields("quartz ribbon saddle timber umbrella violet walnut yarn " +
			"zeppelin bottle curtain dolphin ember flute glacier helmet ivory jacket kernel lantern")
		planted := [][]string{
			{"lenovo", "dell", "hewlett"},
			{"nba", "olympics", "basketball"},
			{"partnership", "alliance", "deal"},
		}
		ix := bestjoin.NewIndex()
		for d := 0; d < engineBenchDocs; d++ {
			words := make([]string, 300)
			for i := range words {
				words[i] = filler[rng.Intn(len(filler))]
			}
			for g, group := range planted {
				if rng.Intn(10) < 7 { // ~70% of docs per concept
					for occ := 0; occ < 4+rng.Intn(5); occ++ {
						words[rng.Intn(len(words))] = group[rng.Intn(len(group))]
					}
				}
				_ = g
			}
			ix.AddText(d, strings.Join(words, " "))
		}
		engineCompact = ix.Compact()
	})
	return engineCompact
}

func engineBenchQuery() bestjoin.EngineQuery {
	return bestjoin.EngineQuery{
		Concepts: []bestjoin.Concept{
			{"lenovo": 1, "dell": 0.9, "hewlett": 0.8},
			{"nba": 1, "olympics": 0.9, "basketball": 0.7},
			{"partnership": 1, "alliance": 0.8, "deal": 0.6},
		},
		Join: bestjoin.JoinValidWIN(bestjoin.ExpWIN{Alpha: 0.1}),
		K:    10,
	}
}

// BenchmarkEngineColdVsCached compares a concept's first query (what a
// process pays once per stem and index epoch: each iteration loads a
// fresh index from the marshalled bytes, untimed, so the query decodes
// every member stem's postings into its arrays) against the identical
// query repeated on one engine, which decodes nothing.
func BenchmarkEngineColdVsCached(b *testing.B) {
	raw := engineBenchIndex().Marshal()
	q := engineBenchQuery()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var st bestjoin.EngineStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := bestjoin.LoadCompactIndex(raw)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC() // the load's garbage is not the query's
			b.StartTimer()
			e := bestjoin.NewEngine(c, bestjoin.EngineConfig{})
			if _, err := e.Search(context.Background(), q); err != nil {
				b.Fatal(err)
			}
			st = e.Stats()
		}
		b.StopTimer()
		b.ReportMetric(float64(st.JoinsRun), "joins/op")
	})
	b.Run("cached", func(b *testing.B) {
		c, err := bestjoin.LoadCompactIndex(raw)
		if err != nil {
			b.Fatal(err)
		}
		e := bestjoin.NewEngine(c, bestjoin.EngineConfig{})
		// The warm-up decodes the stems.
		if _, err := e.Search(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		decoded := queryStems(b, c, q)
		warm := e.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Search(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for i, s := range queryStems(b, c, q) {
			if s != decoded[i] {
				b.Fatalf("cached runs decoded postings: stem %d's arrays were replaced after warm-up", i)
			}
		}
		reportInvocations(b, e.Stats(), warm)
	})
}

// queryStems returns the arrays the index holds for every member stem
// of q's concepts, in concept then stem order.
func queryStems(b *testing.B, c *bestjoin.CompactIndex, q bestjoin.EngineQuery) []*index.StemArrays {
	var out []*index.StemArrays
	for _, concept := range q.Concepts {
		stems, err := c.ConceptStems(concept)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range stems {
			out = append(out, s.Arrays)
		}
	}
	return out
}

// reportInvocations puts the two numbers /stats divides — joins and
// inner-kernel invocations per query since base — on a cached row.
func reportInvocations(b *testing.B, st, base bestjoin.EngineStats) {
	b.ReportMetric(float64(st.JoinsRun-base.JoinsRun)/float64(b.N), "joins/op")
	b.ReportMetric(float64(st.KernelInvocations-base.KernelInvocations)/float64(b.N), "invocations/op")
}

// engineBenchPruningQuery is a query shaped for the top-k floor: a
// steep score spread inside each concept (1 / 0.5 / 0.25), so most
// candidates score well under the k-th kept entry. Its bounds take each
// concept's exact maximum on a document, so a document holding only a
// concept's weaker words is retired before its join; the cache rung
// prunes more, and the rest of the win is the kernel floor cutting the
// losing joins short.
func engineBenchPruningQuery() bestjoin.EngineQuery {
	return bestjoin.EngineQuery{
		Concepts: []bestjoin.Concept{
			{"lenovo": 1, "dell": 0.5, "hewlett": 0.25},
			{"nba": 1, "olympics": 0.5, "basketball": 0.25},
		},
		Join: bestjoin.JoinValidWIN(bestjoin.ExpWIN{Alpha: 0.1}),
		K:    10,
	}
}

// BenchmarkEnginePruning compares the query path with pruning on (the
// default) and off. Both runs produce the identical top-k — the
// benchmark asserts it once up front — so the delta is pure join work
// avoided or cut short; pruneddocs/op and joins/op make the skip rate
// visible in BENCH_engine.json. (The arms keep their "/cold" names from
// when each iteration dropped the engine's caches; the engine has none
// now.)
func BenchmarkEnginePruning(b *testing.B) {
	c := engineBenchIndex()
	q := engineBenchPruningQuery()

	pe := bestjoin.NewEngine(c, bestjoin.EngineConfig{})
	ue := bestjoin.NewEngine(c, bestjoin.EngineConfig{DisablePruning: true})
	rp, err := pe.Search(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	ru, err := ue.Search(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	if len(rp.Docs) != len(ru.Docs) {
		b.Fatalf("pruned returned %d docs, unpruned %d", len(rp.Docs), len(ru.Docs))
	}
	for i := range rp.Docs {
		if rp.Docs[i].Doc != ru.Docs[i].Doc || rp.Docs[i].Score != ru.Docs[i].Score {
			b.Fatalf("rank %d differs: pruned (%d, %v) vs unpruned (%d, %v)", i,
				rp.Docs[i].Doc, rp.Docs[i].Score, ru.Docs[i].Doc, ru.Docs[i].Score)
		}
	}
	if rp.Pruned == 0 && pe.Stats().FloorCutJoins == 0 {
		b.Fatal("pruning benchmark query pruned nothing and cut no join")
	}

	for _, mode := range []struct {
		name string
		cfg  bestjoin.EngineConfig
	}{
		{"pruned", bestjoin.EngineConfig{}},
		{"unpruned", bestjoin.EngineConfig{DisablePruning: true}},
	} {
		b.Run(mode.name+"/cold", func(b *testing.B) {
			e := bestjoin.NewEngine(c, mode.cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Search(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := e.Stats()
			b.ReportMetric(float64(st.PrunedDocs)/float64(b.N), "pruneddocs/op")
			b.ReportMetric(float64(st.JoinsRun)/float64(b.N), "joins/op")
		})
	}
}

// BenchmarkEngineWorkers measures worker-pool scaling of the join
// phase (caches primed, so posting decompression is off the path):
// 1 worker, GOMAXPROCS, and an oversubscribed 8, so the chunked
// dispatch path is measured past the core count. On a single-core
// host the wider points still exercise the sharded-pool path, just
// without speedup.
func BenchmarkEngineWorkers(b *testing.B) {
	c := engineBenchIndex()
	q := engineBenchQuery()
	multi := runtime.GOMAXPROCS(0)
	if multi == 1 {
		multi = 4
	}
	for _, workers := range []int{1, multi, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := bestjoin.NewEngine(c, bestjoin.EngineConfig{Workers: workers})
			if _, err := e.Search(context.Background(), q); err != nil {
				b.Fatal(err)
			}
			warm := e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Search(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportInvocations(b, e.Stats(), warm)
		})
	}
}

// BenchmarkEngineAdmission measures admission control under
// saturation: parallel goroutines hammer a cached engine capped at
// MaxInFlight=2 with the shed policy, so most arrivals take the
// rejection fast path. ns/op blends admitted and shed queries;
// shed/op records the rejection rate so BENCH_engine.json shows what
// load shedding costs (a channel try-send) and how much it triggers.
func BenchmarkEngineAdmission(b *testing.B) {
	c := engineBenchIndex()
	q := engineBenchQuery()
	e := bestjoin.NewEngine(c, bestjoin.EngineConfig{
		MaxInFlight: 2,
		Overload:    bestjoin.OverloadShed,
	})
	if _, err := e.Search(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	var unexpected atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(4) // 4×GOMAXPROCS goroutines: saturation even on small hosts
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_, err := e.Search(context.Background(), q)
			if err != nil && !errors.Is(err, bestjoin.ErrOverloaded) {
				unexpected.Add(1)
			}
		}
	})
	b.StopTimer()
	if n := unexpected.Load(); n > 0 {
		b.Fatalf("%d queries failed with an error other than ErrOverloaded", n)
	}
	st := e.Stats()
	b.ReportMetric(float64(st.Shed)/float64(b.N), "shed/op")
}

// TestEnginePublicAPI drives the whole public engine surface once:
// index → compact → marshal round trip → engine → search, plus the
// deadline path returning a Partial result.
func TestEnginePublicAPI(t *testing.T) {
	c := engineBenchIndex()
	reloaded, err := bestjoin.LoadCompactIndex(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	e := bestjoin.NewEngine(reloaded, bestjoin.EngineConfig{})
	q := engineBenchQuery()
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Docs) == 0 {
		t.Fatalf("full search: partial=%v docs=%d", res.Partial, len(res.Docs))
	}
	if res.Candidates < engineBenchDocs/10 {
		t.Fatalf("suspiciously few candidates: %d", res.Candidates)
	}
	for i := 1; i < len(res.Docs); i++ {
		if res.Docs[i].Score > res.Docs[i-1].Score {
			t.Fatalf("results not sorted best-first at rank %d", i)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	partial, err := e.Search(ctx, q)
	if err != nil {
		t.Fatalf("deadline must not error: %v", err)
	}
	if !partial.Partial {
		t.Error("expired deadline did not mark the result Partial")
	}
	if st := e.Stats(); st.Queries < 2 || st.DeadlineHits == 0 {
		t.Errorf("stats: %+v", st)
	}
}

// engineBenchUnionQuery evaluates the main benchmark query's concepts
// as a ranked union: any concept may match, so the candidate space is
// near the whole corpus — exactly the regime where WAND pivot skipping
// pays or the union path drowns in joins. Two families, two regimes.
// Under the additive SumMAX the bound separates partial matches from
// full ones and pivots fall strictly below the floor. Under the product
// families proxserve serves (here the valid-matchset ExpMED) a single
// strong list caps every union bound at ~its own maximum, the heap
// fills with documents at that cap, and every later pivot ties the
// floor: those are pruned because the id-ordered walk has already lost
// them the tie (the rank-order floor), not on score.
func engineBenchUnionQuery(join bestjoin.KernelFactory) bestjoin.EngineQuery {
	q := engineBenchQuery()
	q.Mode = bestjoin.ModeOR
	q.Join = join
	return q
}

// BenchmarkEngineUnion measures the disjunctive (block-max WAND) path:
// the ranked union pruned vs exhaustive, plus an m-of-n middle point,
// for SumMAX (unprefixed names) and for the served family (med/).
// joins/op, pivotskips/op, pruneddocs/op and unioncandidates/op land in
// BENCH_engine.json via scripts/benchjson.sh, so the skip rate is
// tracked across changes the same way the conjunctive layer tracks
// pruneddocs/op.
func BenchmarkEngineUnion(b *testing.B) {
	c := engineBenchIndex()
	for _, fam := range []struct {
		prefix string
		join   bestjoin.KernelFactory
	}{
		{"", bestjoin.JoinMAX(bestjoin.SumMAX{Alpha: 0.1})},
		{"med/", bestjoin.JoinValidMED(bestjoin.ExpMED{Alpha: 0.1})},
	} {
		q := engineBenchUnionQuery(fam.join)
		m2 := q
		m2.MinMatch = 2

		// Gate: the pruned union must be bitwise identical to the
		// exhaustive one before its latency means anything.
		for _, gq := range []bestjoin.EngineQuery{q, m2} {
			rp, err := bestjoin.NewEngine(c, bestjoin.EngineConfig{}).Search(context.Background(), gq)
			if err != nil {
				b.Fatal(err)
			}
			ru, err := bestjoin.NewEngine(c, bestjoin.EngineConfig{DisablePruning: true}).Search(context.Background(), gq)
			if err != nil {
				b.Fatal(err)
			}
			if len(rp.Docs) != len(ru.Docs) {
				b.Fatalf("%sm=%d: pruned union returned %d docs, unpruned %d", fam.prefix, gq.MinMatch, len(rp.Docs), len(ru.Docs))
			}
			for i := range rp.Docs {
				if rp.Docs[i].Doc != ru.Docs[i].Doc || rp.Docs[i].Score != ru.Docs[i].Score {
					b.Fatalf("%sm=%d: rank %d differs: pruned (%d, %v) vs unpruned (%d, %v)", fam.prefix, gq.MinMatch, i,
						rp.Docs[i].Doc, rp.Docs[i].Score, ru.Docs[i].Doc, ru.Docs[i].Score)
				}
			}
		}

		for _, bench := range []struct {
			name string
			cfg  bestjoin.EngineConfig
			q    bestjoin.EngineQuery
		}{
			{"or/pruned", bestjoin.EngineConfig{}, q},
			{"or/unpruned", bestjoin.EngineConfig{DisablePruning: true}, q},
			{"m2/pruned", bestjoin.EngineConfig{}, m2},
		} {
			b.Run(fam.prefix+bench.name, func(b *testing.B) {
				e := bestjoin.NewEngine(c, bench.cfg)
				if _, err := e.Search(context.Background(), bench.q); err != nil {
					b.Fatal(err)
				}
				base := e.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Search(context.Background(), bench.q); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := e.Stats()
				b.ReportMetric(float64(st.JoinsRun-base.JoinsRun)/float64(b.N), "joins/op")
				b.ReportMetric(float64(st.PivotSkips-base.PivotSkips)/float64(b.N), "pivotskips/op")
				b.ReportMetric(float64(st.PrunedDocs-base.PrunedDocs)/float64(b.N), "pruneddocs/op")
				b.ReportMetric(float64(st.UnionCandidates-base.UnionCandidates)/float64(b.N), "unioncandidates/op")
			})
		}
	}
}

// BenchmarkEngineSharded measures the scatter-gather tier on the warm
// path: the same query on a single engine and on 1/2/4-shard
// coordinators over in-process child engines (the remote fleet's
// coordinator without the wire), each shard with its own caches and
// the scatter sharing one pruning floor. shardqueries/op and
// mergedcandidates/op land in
// BENCH_engine.json via scripts/benchjson.sh, so the fan-out cost and
// the merge width are tracked across changes. The sharded answer is
// gated bitwise against the single engine's before timing starts.
func BenchmarkEngineSharded(b *testing.B) {
	c := engineBenchIndex()
	q := engineBenchQuery()
	cfg := bestjoin.EngineConfig{}

	single := bestjoin.NewEngine(c, cfg)
	want, err := single.Search(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("single", func(b *testing.B) {
		e := bestjoin.NewEngine(c, cfg)
		if _, err := e.Search(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Search(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			coord, err := shard.New(c, shard.Config{Shards: shards, Engine: cfg})
			if err != nil {
				b.Fatal(err)
			}
			got, err := coord.Search(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Docs) != len(want.Docs) {
				b.Fatalf("sharded returned %d docs, single %d", len(got.Docs), len(want.Docs))
			}
			for i := range got.Docs {
				if got.Docs[i].Doc != want.Docs[i].Doc || got.Docs[i].Score != want.Docs[i].Score {
					b.Fatalf("rank %d differs: sharded (%d, %v) vs single (%d, %v)", i,
						got.Docs[i].Doc, got.Docs[i].Score, want.Docs[i].Doc, want.Docs[i].Score)
				}
			}
			base := coord.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Search(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := coord.Stats()
			b.ReportMetric(float64(st.ShardQueries-base.ShardQueries)/float64(b.N), "shardqueries/op")
			b.ReportMetric(float64(st.MergedCandidates-base.MergedCandidates)/float64(b.N), "mergedcandidates/op")
		})
	}
}

// BenchmarkEngineRemote measures the networked shard tier end to end:
// the benchmark query against a 2-process remote fleet (real HTTP
// servers in-process, JSON wire format, full client robustness stack)
// versus the same query on a single engine. The query rides as a
// KernelSpec — the serializable kernel name — so both paths provably
// resolve the same joiner, and the remote answer is gated bitwise
// before timing starts. hedged/op and retried/op land in
// BENCH_engine.json via scripts/benchjson.sh: on a healthy loopback
// fleet both should sit at ~0, so drift flags either a latency
// regression (hedges) or transport flakiness (retries).
func BenchmarkEngineRemote(b *testing.B) {
	c := engineBenchIndex()
	q := engineBenchQuery()
	q.Join = nil
	q.Spec = bestjoin.JoinSpec{Family: "win", Alpha: 0.1, Valid: true}
	cfg := bestjoin.EngineConfig{}

	single := bestjoin.NewEngine(c, cfg)
	want, err := single.Search(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}

	parts, err := c.Partition(2)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, len(parts))
	for i, p := range parts {
		mux := http.NewServeMux()
		bestjoin.NewRemoteServer(bestjoin.NewEngine(p, cfg), bestjoin.RemoteServerConfig{}).Register(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		addrs[i] = ts.URL
	}
	fleet, err := bestjoin.NewRemoteFleet(addrs,
		bestjoin.RemoteShardConfig{Timeout: time.Minute}, bestjoin.ShardedEngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	got, err := fleet.Search(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	if len(got.Docs) != len(want.Docs) {
		b.Fatalf("remote returned %d docs, single %d", len(got.Docs), len(want.Docs))
	}
	for i := range got.Docs {
		if got.Docs[i].Doc != want.Docs[i].Doc || got.Docs[i].Score != want.Docs[i].Score {
			b.Fatalf("rank %d differs: remote (%d, %v) vs single (%d, %v)", i,
				got.Docs[i].Doc, got.Docs[i].Score, want.Docs[i].Doc, want.Docs[i].Score)
		}
	}

	base := fleet.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Search(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := fleet.Stats()
	b.ReportMetric(float64(st.Hedged-base.Hedged)/float64(b.N), "hedged/op")
	b.ReportMetric(float64(st.Retried-base.Retried)/float64(b.N), "retried/op")
	b.ReportMetric(float64(st.ShardQueries-base.ShardQueries)/float64(b.N), "shardqueries/op")
}
