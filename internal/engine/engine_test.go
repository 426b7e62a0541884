package engine

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/refrank"
	"bestjoin/internal/scorefn"
)

// testCorpus builds a deterministic synthetic text corpus: filler
// words with concept words planted at varying densities, so some
// documents contain every concept and others only a few.
func testCorpus(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	filler := []string{
		"quartz", "ribbon", "saddle", "timber", "umbrella", "violet",
		"walnut", "yarn", "zeppelin", "bottle", "curtain", "dolphin",
	}
	planted := [][]string{
		{"lenovo", "dell", "hewlett"},
		{"nba", "olympics", "basketball"},
		{"partnership", "alliance", "deal"},
	}
	docs := make([]string, n)
	for d := range docs {
		words := make([]string, 0, 60)
		for i := 0; i < 50; i++ {
			words = append(words, filler[rng.Intn(len(filler))])
		}
		for g, group := range planted {
			// Concept g appears in roughly (3-g)/4 of documents.
			if rng.Intn(4) <= 2-g || d%7 == g {
				at := rng.Intn(len(words))
				words[at] = group[rng.Intn(len(group))]
			}
		}
		docs[d] = joinWords(words)
	}
	return docs
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

func buildCompact(t testing.TB, docs []string) *index.Compact {
	t.Helper()
	ix := index.New()
	for d, body := range docs {
		ix.AddText(d, body)
	}
	return ix.Compact()
}

func testConcepts() []index.Concept {
	return []index.Concept{
		{"lenovo": 1, "dell": 0.9, "hewlett": 0.8},
		{"nba": 1, "olympics": 0.9, "basketball": 0.7},
		{"partnership": 1, "alliance": 0.8, "deal": 0.6},
	}
}

// oracle is internal/refrank's ranking of the documents matching at
// least m of concepts, joined with a kernel from jn, cut at k: the
// reference the engine must agree with bit for bit.
func oracle(c *index.Compact, concepts []index.Concept, m int, jn KernelFactory, k int) []DocResult {
	ranked, _ := refrank.Rank(c, concepts, m, refrank.Kernel(jn()))
	out := make([]DocResult, min(k, len(ranked)))
	for i := range out {
		out[i] = DocResult(ranked[i])
	}
	return out
}

func TestSearchMatchesBruteForce(t *testing.T) {
	c := buildCompact(t, testCorpus(120, 7))
	e := New(c, Config{Workers: 4})
	for name, jn := range map[string]KernelFactory{
		"win":      WINJoiner(scorefn.ExpWIN{Alpha: 0.1}),
		"med":      MEDJoiner(scorefn.ExpMED{Alpha: 0.1}),
		"max":      MAXJoiner(scorefn.SumMAX{Alpha: 0.1}),
		"validmed": ValidMEDJoiner(scorefn.ExpMED{Alpha: 0.1}),
	} {
		want := oracle(c, testConcepts(), 3, jn, 5)
		res, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: jn, K: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Partial {
			t.Errorf("%s: unexpected partial result", name)
		}
		assertSameDocs(t, name, res.Docs, want)
	}
}

// TestRepeatQueryHitsCacheAndSkipsDecoding pins that a stem is decoded
// once per index: the first query decodes the stems its concepts name,
// a repeat reads the very same arrays and answers identically, and the
// counters the load harness still reads stay 0.
func TestRepeatQueryHitsCacheAndSkipsDecoding(t *testing.T) {
	c := buildCompact(t, testCorpus(200, 11))
	e := New(c, Config{Workers: 2})
	q := Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 3}

	first, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	decoded := map[string]*index.StemArrays{}
	for _, cc := range q.Concepts {
		stems, err := c.ConceptStems(cc)
		if err != nil || len(stems) == 0 {
			t.Fatalf("concept %v: stems %v, %v", cc, stems, err)
		}
		for _, s := range stems {
			decoded[s.Stem] = s.Arrays
		}
	}
	second, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for stem, arr := range decoded {
		if again, _ := c.Stem(stem); again != arr {
			t.Errorf("stem %q decoded again", stem)
		}
	}
	if st := e.Stats(); st.ListHits+st.ListMisses+st.BlockDecodes+st.CoalescedDecodes != 0 {
		t.Errorf("retired counters moved: %+v", st)
	}
	assertSameDocs(t, "repeat", second.Docs, first.Docs)
}

func TestCacheEvictionStillCorrect(t *testing.T) {
	c := buildCompact(t, testCorpus(150, 3))
	// CacheLists is accepted and ignored: a setting that once forced
	// constant eviction must not change answers.
	e := New(c, Config{Workers: 2, CacheLists: 4})
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	want := oracle(c, testConcepts(), 3, jn, 4)
	for round := 0; round < 3; round++ {
		res, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: jn, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDocs(t, fmt.Sprintf("round %d", round), res.Docs, want)
	}
}

// TestDeadlineReturnsPartial: a deadline ends a query with a Partial
// result, not an error, that evaluated fewer documents than match the
// query. The walk confirms candidates as it goes, so the partial
// result's own Candidates counts only those confirmed before the
// deadline (none, when it passes before the walk starts); the total is
// internal/refrank's qualifying count.
func TestDeadlineReturnsPartial(t *testing.T) {
	c := buildCompact(t, testCorpus(300, 5))
	_, matching := refrank.Rank(c, testConcepts(), 3, refrank.Kernel(MEDJoiner(scorefn.ExpMED{Alpha: 0.1})()))
	e := New(c, Config{Workers: 2})
	slow := KernelFactory(func() join.Kernel {
		return join.KernelFunc(func(ls match.Lists) (match.Set, float64, bool) {
			time.Sleep(2 * time.Millisecond)
			return join.MED(scorefn.ExpMED{Alpha: 0.1}, ls)
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := e.Search(ctx, Query{Concepts: testConcepts(), Join: slow, K: 5})
	if err != nil {
		t.Fatalf("deadline must not be an error: %v", err)
	}
	if !res.Partial {
		t.Fatalf("expected partial result, evaluated %d of %d", res.Evaluated, res.Candidates)
	}
	if res.Evaluated >= matching || res.Evaluated > res.Candidates {
		t.Errorf("partial result evaluated %d of %d confirmed, %d matching", res.Evaluated, res.Candidates, matching)
	}
	st := e.Stats()
	if st.DeadlineHits == 0 {
		t.Error("deadline hit not counted")
	}
	if st.PartialResults == 0 {
		t.Error("partial result not counted")
	}
}

func TestCanceledContextReturnsImmediately(t *testing.T) {
	c := buildCompact(t, testCorpus(100, 9))
	e := New(c, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Search(ctx, Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Evaluated != 0 {
		t.Errorf("canceled query: partial=%v evaluated=%d; want partial, 0", res.Partial, res.Evaluated)
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	c := buildCompact(t, testCorpus(150, 13))
	jn := MAXJoiner(scorefn.SumMAX{Alpha: 0.1})
	var base []DocResult
	for _, workers := range []int{1, 2, 8} {
		e := New(c, Config{Workers: workers})
		res, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: jn, K: 6})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res.Docs
			continue
		}
		assertSameDocs(t, fmt.Sprintf("workers=%d", workers), res.Docs, base)
	}
}

func TestConcurrentSearches(t *testing.T) {
	c := buildCompact(t, testCorpus(150, 17))
	e := New(c, Config{Workers: 4})
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	want := oracle(c, testConcepts(), 3, jn, 3)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			res, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: jn, K: 3})
			if err == nil {
				for i := range want {
					if res.Docs[i].Doc != want[i].Doc {
						err = fmt.Errorf("rank %d: doc %d, want %d", i, res.Docs[i].Doc, want[i].Doc)
						break
					}
				}
			}
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestMalformedQueries(t *testing.T) {
	e := New(buildCompact(t, testCorpus(10, 1)), Config{})
	if _, err := e.Search(context.Background(), Query{Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1})}); err == nil {
		t.Error("no concepts accepted")
	}
	if _, err := e.Search(context.Background(), Query{Concepts: testConcepts()}); err == nil {
		t.Error("nil joiner accepted")
	}
	// A non-finite concept weight is the caller's error on every entry
	// point, as it already is on the wire — not a concept quietly served
	// without bounds.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := Query{Concepts: []index.Concept{{"lenovo": 1}, {"nba": w}}, Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1})}
		if _, err := e.Search(context.Background(), q); err == nil {
			t.Errorf("Search accepted concept weight %v", w)
		}
		if _, err := e.SearchSnapshot(context.Background(), q, e.Snapshot()); err == nil {
			t.Errorf("SearchSnapshot accepted concept weight %v", w)
		}
	}
	// A K past MaxK is refused before any work, never sized into a heap:
	// 2^40 slots would kill the process with an unrecoverable
	// out-of-memory error. MaxK itself is served.
	big := Query{Concepts: testConcepts(), Join: MEDJoiner(scorefn.ExpMED{Alpha: 0.1}), K: 1 << 40}
	if _, err := e.Search(context.Background(), big); err == nil {
		t.Error("Search accepted K = 2^40")
	}
	if _, err := e.SearchSnapshot(context.Background(), big, e.Snapshot()); err == nil {
		t.Error("SearchSnapshot accepted K = 2^40")
	}
	if st := e.Stats(); st.Queries != 0 {
		t.Errorf("malformed queries were admitted: %+v", st)
	}
	big.K = MaxK
	if res, err := e.Search(context.Background(), big); err != nil || len(res.Docs) == 0 || len(res.Docs) > 10 {
		t.Errorf("K = MaxK over 10 documents: %v, %+v", err, res)
	}
	for _, mode := range []QueryMode{ModeAND, ModeOR} {
		big.K, big.Mode = MaxK+1, mode
		if _, err := e.Search(context.Background(), big); err == nil {
			t.Errorf("mode %v: Search accepted K = MaxK+1", mode)
		}
	}
	// A concept with no corpus occurrences yields an empty, complete
	// result, not an error.
	res, err := e.Search(context.Background(), Query{
		Concepts: []index.Concept{{"xenon-nowhere": 1}},
		Join:     MEDJoiner(scorefn.ExpMED{Alpha: 0.1}),
	})
	if err != nil || len(res.Docs) != 0 || res.Partial {
		t.Errorf("vacuous query: %v, %+v", err, res)
	}
}

// TestKernelSpecFactory pins what a spec must carry to resolve: one of
// the three families, spelled as on the wire, and a finite alpha > 0.
// Every family decays with distance only for alpha > 0, and the
// pruning bounds assume that decay, so any other alpha is refused with
// an error that names it.
func TestKernelSpecFactory(t *testing.T) {
	for _, c := range []struct {
		spec    KernelSpec
		wantErr string // "" resolves
	}{
		{KernelSpec{Family: "win", Alpha: 0.1}, ""},
		{KernelSpec{Family: "med", Alpha: 0.1, Valid: true}, ""},
		{KernelSpec{Family: "max", Alpha: 5e-324}, ""},
		{KernelSpec{Family: "med", Alpha: math.MaxFloat64}, ""},
		{KernelSpec{Family: "WIN", Alpha: 0.1}, "family"},
		{KernelSpec{Alpha: 0.1}, "family"},
		{KernelSpec{Family: "win", Alpha: -0.5}, "alpha"},
		{KernelSpec{Family: "med", Alpha: 0}, "alpha"},
		{KernelSpec{Family: "max", Alpha: math.Copysign(0, -1)}, "alpha"},
		{KernelSpec{Family: "win", Alpha: math.NaN()}, "alpha"},
		{KernelSpec{Family: "med", Alpha: math.Inf(1)}, "alpha"},
		{KernelSpec{Family: "max", Alpha: math.Inf(-1)}, "alpha"},
	} {
		f, err := c.spec.Factory()
		switch {
		case c.wantErr == "" && (err != nil || f == nil):
			t.Errorf("%+v: factory %v, error %v; want a factory", c.spec, f != nil, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%+v: error %v, want one naming %s", c.spec, err, c.wantErr)
		}
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a := index.Concept{"alpha": 1, "beta": 0.5, "gamma": 0.25}
	b := index.Concept{}
	for w, s := range a { // different construction order
		b[w] = s
	}
	if index.ConceptKey(a) != index.ConceptKey(b) {
		t.Error("equal concepts fingerprint differently")
	}
	for _, other := range []index.Concept{
		{"alpha": 1, "beta": 0.5},
		{"alpha": 1, "beta": 0.5, "gamma": 0.26},
		{"alpha": 1, "beta": 0.5, "delta": 0.25},
	} {
		if index.ConceptKey(a) == index.ConceptKey(other) {
			t.Errorf("distinct concepts %v and %v collide", a, other)
		}
	}
}

func TestStatsAndExpvar(t *testing.T) {
	c := buildCompact(t, testCorpus(80, 21))
	e := New(c, Config{Workers: 2})
	if err := e.Publish("bestjoin.engine.test"); err != nil {
		t.Fatal(err)
	}
	if err := e.Publish("bestjoin.engine.test"); err == nil {
		t.Error("duplicate expvar publish did not error")
	}
	if _, err := e.Search(context.Background(), Query{Concepts: testConcepts(), Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.1})}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Queries != 1 || st.JoinsRun == 0 || st.DocsEvaluated == 0 {
		t.Errorf("stats after one query: %+v", st)
	}
	if st.QueryLatency.Count != 1 {
		t.Errorf("latency histogram count %d, want 1", st.QueryLatency.Count)
	}
	// The expvar payload must be valid JSON mirroring Stats.
	var decoded Stats
	if err := json.Unmarshal([]byte(expvar.Get("bestjoin.engine.test").String()), &decoded); err != nil {
		t.Fatalf("expvar payload is not JSON: %v", err)
	}
	if decoded.Queries == 0 {
		t.Error("expvar snapshot lost query count")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	for _, d := range []time.Duration{0, time.Microsecond, 3 * time.Microsecond, time.Millisecond, 2 * time.Second} {
		h.observe(d)
	}
	snap := h.snapshot()
	if snap.Count != 5 {
		t.Fatalf("count %d, want 5", snap.Count)
	}
	var total uint64
	last := -1
	for _, b := range snap.Buckets {
		total += b.Count
		upper := int(b.UpperMicros)
		if b.UpperMicros == 0 {
			upper = 1 << 62 // overflow bucket sorts last
		}
		if upper <= last {
			t.Errorf("buckets not ascending: %v", snap.Buckets)
		}
		last = upper
	}
	if total != snap.Count {
		t.Errorf("bucket sum %d != count %d", total, snap.Count)
	}
	if snap.MeanMicros <= 0 {
		t.Errorf("mean %v not positive", snap.MeanMicros)
	}
}
