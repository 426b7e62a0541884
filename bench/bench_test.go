package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bestjoin"
	"bestjoin/internal/index"
)

const tinyDocs = 40 // documents per topic in self-tests

func tinyDataset(t *testing.T, seed int64) *dataset {
	t.Helper()
	ds, err := buildDataset(seed, tinyDocs, filepath.Join(t.TempDir(), "index.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(generateCorpus(7, tinyDocs), generateCorpus(7, tinyDocs)) {
		t.Fatal("same seed generated different corpora")
	}
	if reflect.DeepEqual(generateCorpus(7, tinyDocs), generateCorpus(8, tinyDocs)) {
		t.Fatal("different seeds generated the same corpus")
	}
	a, b, c := tinyDataset(t, 7), tinyDataset(t, 7), tinyDataset(t, 8)
	read := func(ds *dataset) []byte {
		buf, err := os.ReadFile(ds.path)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(read(a), read(b)) {
		t.Fatal("same seed saved different index files")
	}
	if bytes.Equal(read(a), read(c)) {
		t.Fatal("different seeds saved the same index file")
	}
	plans := func(ds *dataset, seed int64) []plan {
		var out []plan
		for _, w := range workloads {
			served, _, err := loadServed(ds, w.Family)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, buildPlan(w, queryClasses(seed, served, w.Family), seed, 512))
		}
		return out
	}
	pa, pb, pc := plans(a, 7), plans(b, 7), plans(c, 8)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("same seed planned different query lists or streams")
	}
	if reflect.DeepEqual(pa, pc) {
		t.Fatal("different seeds planned the same streams")
	}
	// warm_and and remote_fleet are fed the identical stream.
	if !reflect.DeepEqual(pa[0], pa[3]) {
		t.Fatal("remote_fleet's stream differs from warm_and's")
	}
}

func TestConceptListsMatchQueryLists(t *testing.T) {
	ds := tinyDataset(t, 5)
	idx, err := index.LoadFile(ds.path)
	if err != nil {
		t.Fatal(err)
	}
	lex := bestjoin.BuiltinLexicon()
	for _, term := range []string{"year", "in", "stonehenge", ds.heavy[0]} {
		c := expandConcept(lex, term)
		got := conceptLists(idx, c)
		for doc := 0; doc < idx.Docs(); doc++ {
			want := idx.QueryLists(doc, []index.Concept{c})[0]
			if len(want) == 0 && len(got[doc]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[doc], want) {
				t.Fatalf("%q doc %d: got %v, Compact.QueryLists gives %v", term, doc, got[doc], want)
			}
		}
	}
}

func TestReferenceCheckRejectsWrongAnswers(t *testing.T) {
	want := []ranked{{Doc: 3, Score: 0.5}, {Doc: 9, Score: 0.25}}
	answerWith := func(docs ...ranked) *answer {
		var a answer
		for _, d := range docs {
			a.Docs = append(a.Docs, answerDoc{Doc: d.Doc, Score: d.Score})
		}
		return &a
	}
	if err := checkAnswer(answerWith(want...), want); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for name, wrong := range map[string]*answer{
		"wrong doc":   answerWith(ranked{4, 0.5}, ranked{9, 0.25}),
		"wrong order": answerWith(ranked{9, 0.25}, ranked{3, 0.5}),
		"one ulp off": answerWith(ranked{3, math.Nextafter(0.5, 1)}, ranked{9, 0.25}),
		"short":       answerWith(ranked{3, 0.5}),
	} {
		if checkAnswer(wrong, want) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	var v []float64
	for i := 1; i <= 200; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{{50, 100, 100}, {95, 190, 10}, {99, 198, 2}} {
		if got, beyond := percentile(v, c.p); got != c.value || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.value, c.beyond)
		}
	}
	if _, beyond := percentile(nil, 95); beyond != 0 {
		t.Error("empty sample reports samples beyond")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "child", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "child", Start: 20, End: 50},  // overlaps the first: covered once
		{ID: 3, Parent: 0, Name: "child", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "leaf", Start: 12, End: 18},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	if st := got["parent"]; st.Total != 100 || st.Self != 50 {
		t.Errorf("parent total %d self %d, want 100 and 50", st.Total, st.Self)
	}
	if st := got["child"]; st.Count != 3 || st.Total != 80 || st.Self != 74 {
		t.Errorf("child count %d total %d self %d, want 3, 80 and 74", st.Count, st.Total, st.Self)
	}
}

// stubPlan is a one-query plan against a stub server.
func stubPlan() plan {
	return plan{Distinct: []query{{Class: "topic", Terms: []string{"a"}}}, Stream: []int{0}}
}

const stubBody = `{"Docs":[{"Doc":7,"Score":0.5,"Set":[{"Loc":1,"Score":1}]}],"Elapsed":1000,"degraded":false,"partial":false}`

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var first atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		io.WriteString(w, stubBody)
	}))
	defer ts.Close()
	p := stubPlan()
	c := newClient(ts.Listener.Addr().String(), p, 1)
	defer c.close()
	// 200 qps for 0.6 s over one connection: 60 requests fall due while
	// the first one stalls. A generator that waited for the response
	// before sending the next would record one slow request.
	samples := openLoop(context.Background(), c, p.Stream, 200, 600*time.Millisecond, 1)
	if len(samples) != 120 {
		t.Fatalf("sent %d requests, want 120", len(samples))
	}
	slow := 0
	for _, s := range samples {
		if s.outcome != ok {
			t.Fatalf("request failed: %s", outcomeNames[s.outcome])
		}
		if s.latency > stall/3 {
			slow++
		}
	}
	if slow < 35 {
		t.Fatalf("%d requests carry the stall, want the ≥35 that were due while it lasted", slow)
	}
	// The same requests miss a latency limit of a third of the stall.
	r := &result{EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
	openLoopMetrics(p, samples, stall/3, r)
	if got, want := r.EndToEnd["within_limit_share"], float64(len(samples)-slow)/float64(len(samples)); got != want {
		t.Fatalf("within_limit_share %v, want %v: %d of %d requests carry the stall", got, want, slow, len(samples))
	}
}

func TestWrongDocAndShedCountAsFailed(t *testing.T) {
	var mode atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		switch mode.Load() {
		case 1:
			io.WriteString(w, `{"Docs":[{"Doc":8,"Score":0.5,"Set":[{"Loc":1,"Score":1}]}],"degraded":false,"partial":false}`)
		case 2:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "engine overloaded", http.StatusTooManyRequests)
		case 3:
			io.WriteString(w, `{"Docs":[],"degraded":true,"partial":false}`)
		default:
			io.WriteString(w, stubBody)
		}
	}))
	defer ts.Close()
	p := stubPlan()
	c := newClient(ts.Listener.Addr().String(), p, 1)
	defer c.close()
	ctx := context.Background()
	a, s := c.do(ctx, 0)
	if s.outcome != ok {
		t.Fatalf("warm-up: %s", outcomeNames[s.outcome])
	}
	c.expect[0] = a.hash()
	var samples []sample
	for m, want := range []outcome{ok, mismatch, shed, flagged} {
		mode.Store(int32(m))
		_, s := c.do(ctx, 0)
		if s.outcome != want {
			t.Errorf("mode %d: outcome %s, want %s", m, outcomeNames[s.outcome], outcomeNames[want])
		}
		samples = append(samples, s)
	}
	pc := countPhase("stub", samples)
	if pc.Sent != 4 || pc.Succeeded != 1 || pc.Failed != 3 {
		t.Fatalf("counted %+v, want 4 sent, 1 succeeded, 3 failed", pc)
	}
}

func TestLateGeneratorAndGrowingBacklogInvalidateRun(t *testing.T) {
	p := stubPlan()
	// 200 requests, 10 ms apart, each answered in 1 ms; 5 % of them are
	// dispatched `lag` late, 5 % finish `overrun` after the last one fell due.
	phase := func(lag, overrun time.Duration) *result {
		start := time.Now()
		open := make([]sample, 200)
		for i := range open {
			due := start.Add(time.Duration(i) * 10 * time.Millisecond)
			open[i] = sample{due: due, done: due.Add(time.Millisecond), latency: time.Millisecond}
		}
		for i := 0; i < 10; i++ {
			open[i].lag = lag
			open[190+i].done = open[199].due.Add(overrun)
		}
		r := &result{EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		openLoopMetrics(p, open, time.Second, r)
		return r
	}
	if r := phase(0, 0); len(r.Invalid) != 0 || r.Unsustained {
		t.Errorf("punctual generator, drained queue: invalid %v", r.Invalid)
	}
	if r := phase(50*time.Millisecond, 0); len(r.Invalid) != 1 || r.Unsustained {
		t.Errorf("generator 50 ms late on 5 %% of requests: invalid %v, unsustained %v", r.Invalid, r.Unsustained)
	}
	if r := phase(0, time.Second); len(r.Invalid) != 1 || !r.Unsustained {
		t.Errorf("5 %% of requests unfinished at phase end: invalid %v, unsustained %v", r.Invalid, r.Unsustained)
	}
}

// TestTinyRunEndToEnd drives all four workloads against real proxserve
// processes on a tiny corpus with sub-second phases.
func TestTinyRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts proxserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "proxserve")
	if out, err := exec.Command("go", "build", "-o", bin, "bestjoin/cmd/proxserve").CombinedOutput(); err != nil {
		t.Fatalf("build proxserve: %v\n%s", err, out)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{spec: spec, bin: bin, dir: dir, outDir: filepath.Join(dir, "out"), seed: 2, seconds: 0.8, trace: true,
		conns: runtime.NumCPU(), log: io.Discard}
	e.ds = tinyDataset(t, e.seed)
	var set []*result
	for _, w := range workloads {
		r, err := e.runWorkload(context.Background(), w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", w.Name, r.Failed, r.Attempted, r.Phases)
		}
		for _, d := range spec.EndToEnd {
			if v := r.EndToEnd[d.Name]; v <= 0 {
				t.Errorf("%s: %s = %v, want a positive measurement", w.Name, d.Name, v)
			}
		}
		// Every metric BENCHMARK.json declares is measured, and no other.
		for _, trace := range []bool{false, true} {
			if err := printContractLine(io.Discard, spec, r, trace); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
		if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace written: %v", w.Name, err)
		}
		off := r.PerLayer["remote.wire_bytes_per_query"] + r.PerLayer["shard.merged_per_query"]
		if w.Fleet == (off == 0) {
			t.Errorf("%s: remote/shard metrics sum to %v", w.Name, off)
		}
		set = append(set, r)
	}
	if problems := compareStreams(set); len(problems) > 0 {
		t.Errorf("warm_and and remote_fleet disagree: %v", problems)
	}
}
