package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"bestjoin"
	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/match"
	"bestjoin/internal/remote"
	"bestjoin/internal/shard"
)

// The traced pass. After the timed phases (which record no spans) the
// workload's stream is replayed at concurrency 1 against the live
// server and through direct calls to each layer's exported entry
// points, with a span around every call. Everything is measured from
// outside the program: HTTP, /stats, Result.Elapsed in the response
// JSON, and exported functions.

const (
	// tracedRequests is how many of the stream's first requests the
	// concurrency-1 replays send: whole rounds of every mix.
	tracedRequests = 256
	// joinDocsPerQuery caps how many of a query's candidate documents
	// the join layer is timed on.
	joinDocsPerQuery = 48
)

// engineConfig mirrors the engine.Config proxserve builds from the
// workload's flags (-cache, default -max-inflight 64). The fleet's shard
// processes run with the default -fn, so the pair lists they build carry
// another kernel's fingerprint and serve none of the workload's queries:
// the in-process engine that stands for them must not serve pairs either.
func engineConfig(w *workload) engine.Config {
	return engine.Config{CacheLists: w.Cache, MaxInFlight: 64, DisablePairIndex: w.Fleet}
}

func engineQuery(lex *bestjoin.Lexicon, q query, family string) engine.Query {
	eq := engine.Query{Concepts: expandAll(lex, q.Terms), Spec: specFor(family), K: defaultK, MinMatch: q.M}
	if q.Mode == "or" {
		eq.Mode = engine.ModeOR
	}
	return eq
}

// answerOf puts an in-process result in the response's shape so both
// hash alike.
func answerOf(res *engine.Result) *answer {
	a := &answer{Partial: res.Partial, Degraded: res.Degraded, Evaluated: res.Evaluated, Elapsed: res.Elapsed}
	for _, d := range res.Docs {
		doc := answerDoc{Doc: d.Doc, Score: d.Score}
		for _, m := range d.Set {
			doc.Set = append(doc.Set, answerMatch{Loc: m.Loc, Score: m.Score})
		}
		a.Docs = append(a.Docs, doc)
	}
	return a
}

func fetchStats(ctx context.Context, base string) (engine.Stats, error) {
	var st engine.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, fmt.Errorf("fetch /stats: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, fmt.Errorf("read /stats: %w", err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// searchFunc is the Search method shared by engine, coordinator and
// remote shard client.
type searchFunc func(context.Context, engine.Query) (*engine.Result, error)

// tracedRun is the state the layers of one traced pass share.
type tracedRun struct {
	ctx     context.Context
	w       *workload
	p       plan
	served  *index.Compact
	c       *client
	r       *result
	tr      *tracer
	m       map[string]float64 // r.PerLayer
	stream  []int              // the replayed requests
	n       float64            // len(stream)
	queries []engine.Query     // p.Distinct as engine queries

	eng        *engine.Engine // in-process engine, warm
	engineMean time.Duration
	idle       time.Duration                           // the live server's mean idle time between requests
	evaluated  []int                                   // per replayed request: Evaluated from the live response
	delta      func(func(engine.Stats) uint64) float64 // live /stats delta across the traced replay
	searches   float64                                 // engine searches in that delta (per shard on the fleet)
}

// tracedPass fills r.PerLayer's traced metrics and r.Attribution.
func tracedPass(ctx context.Context, w *workload, p plan, served *index.Compact, c *client, r *result, tr *tracer) error {
	t := &tracedRun{ctx: ctx, w: w, p: p, served: served, c: c, r: r, tr: tr, m: r.PerLayer,
		stream: p.Stream[:min(tracedRequests, len(p.Stream))]}
	t.n = float64(len(t.stream))
	lex := bestjoin.BuiltinLexicon()
	for _, q := range p.Distinct {
		t.queries = append(t.queries, engineQuery(lex, q, w.Family))
	}
	for _, layer := range []func() error{t.liveServer, t.engineLayer, t.indexLayer, t.joinLayer} {
		if err := layer(); err != nil {
			return err
		}
	}

	// Decode and join costs are CPU time; a query's decodes and joins run
	// on the server's worker pool (-workers 0: one per core), so their
	// share of the wall clock is the cost over the workers. What is left
	// of the engine's time is the cursor walk, dispatch, heap and LRU.
	m := t.m
	workers := float64(runtime.NumCPU())
	decodeUS, joinUS := m["index.decode_us_per_query"], m["join.join_us_per_query"]
	m["engine.other_us"] = m["engine.search_us"] - (decodeUS+joinUS)/workers
	perWorker := fmt.Sprintf(" ÷ %.0f workers", workers)
	r.Attribution = []attrRow{
		{"proxserve.overhead_us", m["proxserve.overhead_us"]},
		{"index.decode_us_per_query" + perWorker, decodeUS / workers},
		{"join.join_us_per_query" + perWorker, joinUS / workers},
		{"engine.other_us", m["engine.other_us"]},
	}
	if w.Fleet {
		if err := t.fleetLayers(); err != nil {
			return err
		}
		r.Attribution = append(r.Attribution,
			attrRow{"shard.scatter_overhead_us", m["shard.scatter_overhead_us"]},
			attrRow{"remote.hop_us", m["remote.hop_us"]})
	}
	return nil
}

// liveServer replays the stream against the live server at concurrency
// 1, once without spans and once with, and reads the engine's counters
// as /stats deltas across the traced replay.
func (t *tracedRun) liveServer() error {
	replay := func(tr *tracer) (mean, overhead time.Duration, failed int) {
		for i, q := range t.stream {
			id := tr.begin("proxload.request", -1, i)
			start := time.Now()
			a, s := t.c.do(t.ctx, q)
			lat := time.Since(start)
			tr.end(id)
			if s.outcome != ok {
				failed++
				continue
			}
			if tr != nil {
				// The server reports how long Search took, not when it
				// started; centre it in the request's interval.
				at := tr.spans[id].Start + int64(lat-a.Elapsed)/2
				tr.add("proxserve.search", id, i, at, at+int64(a.Elapsed))
				t.evaluated[i] = a.Evaluated
			}
			mean += lat
			overhead += lat - a.Elapsed
		}
		return mean / time.Duration(len(t.stream)), overhead / time.Duration(len(t.stream)), failed
	}
	t.evaluated = make([]int, len(t.stream))
	plainMean, _, failedPlain := replay(nil)
	before, err := fetchStats(t.ctx, t.c.base)
	if err != nil {
		return err
	}
	tracedMean, overhead, failedTraced := replay(t.tr)
	after, err := fetchStats(t.ctx, t.c.base)
	if err != nil {
		return err
	}
	sent, failed := 2*len(t.stream), failedPlain+failedTraced
	t.r.Phases = append(t.r.Phases, phaseCount{Phase: "traced", Sent: sent, Succeeded: sent - failed, Failed: failed})
	t.r.C1MeanUS = us(tracedMean)
	t.idle = overhead

	m, n := t.m, t.n
	m["proxload.trace_overhead_share"] = ratio(float64(tracedMean-plainMean), float64(plainMean))
	m["proxserve.overhead_us"] = us(overhead)
	d := func(f func(engine.Stats) uint64) float64 { return float64(f(after) - f(before)) }
	t.delta = d
	t.searches = d(func(s engine.Stats) uint64 { return s.Queries })
	if t.w.Fleet {
		t.searches = d(func(s engine.Stats) uint64 { return s.ShardQueries })
	}
	evaluated := d(func(s engine.Stats) uint64 { return s.DocsEvaluated })
	pruned := d(func(s engine.Stats) uint64 { return s.PrunedDocs })
	hits := d(func(s engine.Stats) uint64 { return s.ListHits })
	misses := d(func(s engine.Stats) uint64 { return s.ListMisses })
	decodes := d(func(s engine.Stats) uint64 { return s.BlockDecodes })
	coalesced := d(func(s engine.Stats) uint64 { return s.CoalescedDecodes })
	m["engine.evaluated_per_query"] = evaluated / n
	m["engine.pruned_share"] = ratio(pruned, pruned+evaluated)
	m["engine.list_hit_rate"] = ratio(hits, hits+misses)
	m["engine.block_decodes_per_query"] = decodes / n
	m["engine.blocks_skipped_per_query"] = d(func(s engine.Stats) uint64 { return s.BlocksSkipped }) / n
	m["engine.coalesced_share"] = ratio(coalesced, coalesced+decodes)
	m["engine.pair_served_share"] = ratio(d(func(s engine.Stats) uint64 { return s.PairServed }), t.searches)
	m["engine.pair_bound_prunes_per_query"] = d(func(s engine.Stats) uint64 { return s.PairBoundPrunes }) / n
	m["engine.pivot_skip_share"] = ratio(d(func(s engine.Stats) uint64 { return s.PivotSkips }),
		d(func(s engine.Stats) uint64 { return s.UnionCandidates }))
	m["engine.union_unpruned_share"] = ratio(d(func(s engine.Stats) uint64 { return s.UnionUnpruned }), t.searches)
	m["join.joins_per_query"] = d(func(s engine.Stats) uint64 { return s.JoinsRun }) / n
	return nil
}

// searchMean replays the stream through one Search implementation and
// returns the mean time per request. Between requests it idles as long
// as the live server's engine did at concurrency 1 (the HTTP round trip,
// proxserve.overhead_us), so that waking the worker pool costs here what
// it cost there: back-to-back searches measured 13 % faster on warm_and.
func (t *tracedRun) searchMean(name string, search searchFunc) (time.Duration, error) {
	var total time.Duration
	for i, q := range t.stream {
		time.Sleep(t.idle)
		id := t.tr.begin(name, -1, i)
		start := time.Now()
		_, err := search(t.ctx, t.queries[q])
		total += time.Since(start)
		t.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", name, t.p.Distinct[q].key(), err)
		}
	}
	return total / time.Duration(len(t.stream)), nil
}

// warm sends every distinct query once: fills caches, opens
// connections, feeds the hedging quantile.
func (t *tracedRun) warm(name string, search searchFunc) error {
	for i, q := range t.queries {
		if _, err := search(t.ctx, q); err != nil {
			return fmt.Errorf("%s warm-up %s: %w", name, t.p.Distinct[i].key(), err)
		}
	}
	return nil
}

// engineLayer runs the same stream through an in-process engine with
// the server's Config, caches warmed the way the server's were.
func (t *tracedRun) engineLayer() error {
	t.eng = engine.New(t.served, engineConfig(t.w))
	if err := t.warm("engine.Search", t.eng.Search); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mean, err := t.searchMean("engine.Search", t.eng.Search)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	t.engineMean = mean
	t.m["engine.search_us"] = us(mean)
	t.m["engine.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / t.n
	t.m["engine.alloc_bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / t.n
	return nil
}

// indexLayer opens and decodes every block of every concept the
// workload queries, and every pair list its pair2 queries are served from.
func (t *tracedRun) indexLayer() error {
	lex := bestjoin.BuiltinLexicon()
	concepts := map[string]index.Concept{}
	for _, q := range t.p.Distinct {
		for _, term := range q.Terms {
			concepts[term] = expandConcept(lex, term)
		}
	}
	var openDur, decodeDur time.Duration
	var tables, blocks, postings int
	for _, term := range sortedKeys(concepts) {
		id := t.tr.begin("index.ConceptBlocks", -1, -1)
		start := time.Now()
		bt, found := t.served.ConceptBlocks(concepts[term])
		openDur += time.Since(start)
		if !found {
			return fmt.Errorf("no blocks registered for %q: proxserve would serve it from the flat path", term)
		}
		tables++
		for i := 0; i < bt.NumBlocks(); i++ {
			bid := t.tr.begin("index.DecodeBlock", id, -1)
			start := time.Now()
			_, lists, err := bt.DecodeBlock(i)
			decodeDur += time.Since(start)
			t.tr.end(bid)
			if err != nil {
				return fmt.Errorf("decode block %d of %q: %w", i, term, err)
			}
			blocks++
			for _, l := range lists {
				postings += len(l)
			}
		}
		t.tr.end(id)
	}
	t.m["index.table_open_us"] = us(openDur) / float64(tables)
	t.m["index.decode_ns_per_posting"] = ratio(float64(decodeDur), float64(postings))
	t.m["index.decode_us_per_query"] = t.m["engine.block_decodes_per_query"] * us(decodeDur) / float64(blocks)

	var pairDur time.Duration
	var pairEntries int
	fp := specFor(t.w.Family).Fingerprint()
	for _, q := range t.p.Distinct {
		if q.Class != "pair2" {
			continue
		}
		id := t.tr.begin("index.ConceptPairs", -1, -1)
		pt, found := t.served.ConceptPairs(concepts[q.Terms[0]], concepts[q.Terms[1]], fp)
		for i := 0; found && i < pt.NumBlocks(); i++ {
			bid := t.tr.begin("index.PairTable.DecodeBlock", id, -1)
			start := time.Now()
			entries, err := pt.DecodeBlock(i)
			pairDur += time.Since(start)
			t.tr.end(bid)
			if err != nil {
				return fmt.Errorf("decode pair block %d of %v: %w", i, q.Terms, err)
			}
			pairEntries += len(entries)
		}
		t.tr.end(id)
	}
	t.m["index.pair_decode_ns_per_entry"] = ratio(float64(pairDur), float64(pairEntries))
	return nil
}

// joinLayer times the served kernel (dedup wrapper included) over the
// match lists of a seeded sample of each query's candidate documents.
// The cost per query is the query's mean join time × the Evaluated count
// the live server reported for it.
func (t *tracedRun) joinLayer() error {
	factory, err := specFor(t.w.Family).Factory()
	if err != nil {
		return err
	}
	kern := factory()
	or, err := newOracle(t.served, t.w.Family)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(t.r.Seed))
	joinMean := make([]time.Duration, len(t.p.Distinct))
	byWidth := map[int][2]float64{} // query width → {ns, matches}
	for qi, q := range t.p.Distinct {
		var cands []match.Lists
		or.eachCandidate(q, func(_ int, lists match.Lists) { cands = append(cands, lists) })
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		cands = cands[:min(joinDocsPerQuery, len(cands))]
		var total time.Duration
		for _, lists := range cands {
			id := t.tr.begin("join.Join", -1, -1)
			start := time.Now()
			kern.Reset(nil, lists)
			kern.Join()
			el := time.Since(start)
			t.tr.end(id)
			total += el
			acc := byWidth[len(lists)]
			acc[0] += float64(el)
			for _, l := range lists {
				acc[1] += float64(len(l))
			}
			byWidth[len(lists)] = acc
		}
		if len(cands) > 0 {
			joinMean[qi] = total / time.Duration(len(cands))
		}
	}
	t.m["join.ns_per_match.w3"] = ratio(byWidth[3][0], byWidth[3][1])
	t.m["join.ns_per_match.w5"] = ratio(byWidth[5][0], byWidth[5][1])
	var total time.Duration
	for i, q := range t.stream {
		total += time.Duration(t.evaluated[i]) * joinMean[q]
	}
	t.m["join.join_us_per_query"] = us(total) / t.n
	return nil
}

// fleetLayers times the shard and remote layers in-process: a 2-shard
// coordinator against the single engine, a loopback remote.Shard against
// the local search, and the JSON wire codec on the workload's own
// queries and answers.
func (t *tracedRun) fleetLayers() error {
	coord, err := shard.New(t.served, shard.Config{Shards: 2, Engine: engineConfig(t.w)})
	if err != nil {
		return fmt.Errorf("in-process coordinator: %w", err)
	}
	if err := t.warm("shard.Coordinator.Search", coord.Search); err != nil {
		return err
	}
	shardMean, err := t.searchMean("shard.Coordinator.Search", coord.Search)
	if err != nil {
		return err
	}
	t.m["shard.scatter_overhead_us"] = us(shardMean - t.engineMean)
	t.m["shard.merged_per_query"] = t.delta(func(s engine.Stats) uint64 { return s.MergedCandidates }) / t.n

	mux := http.NewServeMux()
	remote.NewServer(t.eng, remote.ServerConfig{}).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	rs := remote.NewShard(ts.URL, remote.ShardConfig{})
	if err := t.warm("remote.Shard.Search", rs.Search); err != nil {
		return err
	}
	hopMean, err := t.searchMean("remote.Shard.Search", rs.Search)
	if err != nil {
		return err
	}
	t.m["remote.hop_us"] = us(hopMean - t.engineMean)
	t.m["remote.hedged_share"] = ratio(t.delta(func(s engine.Stats) uint64 { return s.Hedged }), t.searches)
	t.m["remote.retried_share"] = ratio(t.delta(func(s engine.Stats) uint64 { return s.Retried }), t.searches)

	var encDur, decDur time.Duration
	var wireBytes int
	for _, q := range t.stream {
		res, err := t.eng.Search(t.ctx, t.queries[q])
		if err != nil {
			return err
		}
		id := t.tr.begin("remote.encode", -1, -1)
		start := time.Now()
		wq, err := remote.EncodeQuery(t.queries[q], time.Second)
		if err != nil {
			return err
		}
		qb, err := json.Marshal(wq)
		if err != nil {
			return err
		}
		rb, err := json.Marshal(remote.EncodeResult(res, 0))
		if err != nil {
			return err
		}
		encDur += time.Since(start)
		t.tr.end(id)
		wireBytes += len(qb) + len(rb)

		id = t.tr.begin("remote.decode", -1, -1)
		start = time.Now()
		var dq remote.WireQuery
		var dr remote.WireResult
		if err := json.Unmarshal(qb, &dq); err != nil {
			return err
		}
		if err := dq.Validate(); err != nil {
			return err
		}
		if _, err := dq.ToQuery(); err != nil {
			return err
		}
		if err := json.Unmarshal(rb, &dr); err != nil {
			return err
		}
		if err := dr.Validate(); err != nil {
			return err
		}
		dr.ToResult()
		decDur += time.Since(start)
		t.tr.end(id)
	}
	t.m["remote.wire_encode_us"] = us(encDur) / t.n
	t.m["remote.wire_decode_us"] = us(decDur) / t.n
	t.m["remote.wire_bytes_per_query"] = float64(wireBytes) / t.n
	return nil
}
