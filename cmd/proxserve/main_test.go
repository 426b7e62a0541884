package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bestjoin"
)

func demoServer(t *testing.T) *server {
	t.Helper()
	ix := bestjoin.NewIndex()
	for d, body := range demoCorpus {
		ix.AddText(d, body)
	}
	return &server{
		eng:     bestjoin.NewEngine(ix.Compact(), bestjoin.EngineConfig{Workers: 2}),
		lex:     bestjoin.BuiltinLexicon(),
		fn:      "med",
		alpha:   0.1,
		k:       3,
		timeout: 5 * time.Second,
	}
}

func TestQueryRanksDemoCorpus(t *testing.T) {
	s := demoServer(t)
	res, err := s.query("lenovo,nba,partnership", 3, s.mode, s.minMatch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Error("unexpected partial result")
	}
	if len(res.Docs) == 0 {
		t.Fatal("no documents returned")
	}
	// Document 0 holds all three concepts in one tight sentence; it
	// must outrank document 3, where they are scattered.
	if res.Docs[0].Doc != 0 {
		t.Errorf("top document %d, want 0", res.Docs[0].Doc)
	}
	if _, err := s.query(" , ", 3, s.mode, s.minMatch); err == nil {
		t.Error("empty term list did not error")
	}
}

func TestHandleQueryJSON(t *testing.T) {
	s := demoServer(t)
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=lenovo,nba&k=2", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res bestjoin.EngineResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("response is not EngineResult JSON: %v", err)
	}
	if len(res.Docs) == 0 || len(res.Docs) > 2 {
		t.Errorf("got %d docs, want 1..2", len(res.Docs))
	}

	rec = httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != 400 {
		t.Errorf("missing terms: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=a&k=zero", nil))
	if rec.Code != 400 {
		t.Errorf("bad k: status %d, want 400", rec.Code)
	}
	// A k the engine would have to size a 2^40-entry heap for is the
	// client's error, and the server answers the next query as before.
	rec = httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=lenovo,nba&k=1099511627776", nil))
	if rec.Code != 400 {
		t.Errorf("k=2^40: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=lenovo,nba&k=2", nil))
	if rec.Code != 200 {
		t.Errorf("query after k=2^40: status %d: %s", rec.Code, rec.Body)
	}
	// A WIN query wider than the kernel takes is the client's error,
	// not a 200 whose every candidate was dropped by a kernel panic.
	s.fn = "win"
	rec = httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=lenovo"+strings.Repeat(",nba", 24), nil))
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "too wide") {
		t.Errorf("25-term WIN query: status %d body %q, want 400 naming the width", rec.Code, rec.Body)
	}
	if st := s.eng.Stats(); st.JoinPanics != 0 {
		t.Errorf("25-term WIN query cost %d kernel panics", st.JoinPanics)
	}
}

func TestREPLCommands(t *testing.T) {
	// The REPL reads *os.File; exercise the command dispatch through
	// query/stats directly plus a pipe-backed round trip.
	s := demoServer(t)
	if _, err := s.query("lenovo", 1, s.mode, s.minMatch); err != nil {
		t.Fatal(err)
	}
	st := s.eng.Stats()
	if st.Queries == 0 {
		t.Error("stats did not count the query")
	}
	b, err := json.Marshal(st)
	if err != nil || !strings.Contains(string(b), "Queries") {
		t.Errorf("stats JSON: %s, %v", b, err)
	}
}

func TestSynthCorpusDeterministicAndQueryable(t *testing.T) {
	a, b := synthCorpus(50), synthCorpus(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("synthetic corpus not deterministic at doc %d", i)
		}
	}
	ix := bestjoin.NewIndex()
	for d, body := range a {
		ix.AddText(d, body)
	}
	s := demoServer(t)
	s.eng = bestjoin.NewEngine(ix.Compact(), bestjoin.EngineConfig{})
	res, err := s.query("lenovo,nba,partnership", 5, s.mode, s.minMatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) == 0 {
		t.Error("synthetic corpus yields no answers for the planted query")
	}
}

func TestRunServerGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		time.Sleep(200 * time.Millisecond)
		w.Write([]byte("done"))
	})
	hs := &http.Server{Handler: mux}

	serveErr := make(chan error, 1)
	go func() { serveErr <- runServer(hs, ln, 2*time.Second) }()

	// An in-flight request at signal time must be allowed to finish.
	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err == nil {
			defer resp.Body.Close()
			if b, _ := io.ReadAll(resp.Body); string(b) != "done" {
				err = fmt.Errorf("drained request body %q, want %q", b, "done")
			}
		}
		reqErr <- err
	}()

	<-started
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runServer did not return after SIGTERM")
	}
	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	// The port must be closed once runServer returns.
	if _, err := http.Get("http://" + ln.Addr().String() + "/slow"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestNewMuxRoutes pins the explicit routing table: the query, stats,
// and expvar endpoints are always served, while the pprof profiling
// surface exists only when the -pprof flag opted in — off by default,
// a profiling endpoint on a production port is an information leak.
func TestNewMuxRoutes(t *testing.T) {
	s := demoServer(t)
	get := func(mux http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	off := newMux(s, false)
	if rec := get(off, "/query?terms=lenovo&k=1"); rec.Code != 200 {
		t.Errorf("/query: status %d, want 200 (body %q)", rec.Code, rec.Body)
	}
	if rec := get(off, "/stats"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "Queries") {
		t.Errorf("/stats: status %d body %q", rec.Code, rec.Body)
	}
	if rec := get(off, "/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ready") {
		t.Errorf("/healthz: status %d body %q", rec.Code, rec.Body)
	}
	if rec := get(off, "/debug/vars"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "cmdline") {
		t.Errorf("/debug/vars: status %d, want expvar JSON", rec.Code)
	}
	if rec := get(off, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof served without -pprof: status %d, want 404", rec.Code)
	}

	on := newMux(s, true)
	if rec := get(on, "/debug/pprof/"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index with -pprof: status %d", rec.Code)
	}
	if rec := get(on, "/debug/pprof/cmdline"); rec.Code != 200 {
		t.Errorf("pprof cmdline with -pprof: status %d", rec.Code)
	}
}

// TestNewHTTPServerTimeouts pins the server hardening contract: every
// timeout set, so no connection class can hold the server forever.
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", nil)
	if hs.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slow-loris headers hold connections forever")
	}
	if hs.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset: dribbled bodies hold connections forever")
	}
	if hs.WriteTimeout <= 0 {
		t.Error("WriteTimeout unset: stalled readers hold connections forever")
	}
	if hs.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alives hold connections forever")
	}
	if hs.Handler == nil {
		t.Error("nil handler not defaulted")
	}
}

// TestLimitBody pins both body caps: a declared oversize body is
// rejected up front with 413, and an undeclared (chunked) oversize
// body is cut mid-read by MaxBytesReader.
func TestLimitBody(t *testing.T) {
	var readErr error
	h := limitBody(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, readErr = io.Copy(io.Discard, r.Body)
	}))

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/query", strings.NewReader("x"))
	req.ContentLength = maxBodyBytes + 1
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize body: status %d, want 413", rec.Code)
	}

	readErr = nil
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/query", strings.NewReader(strings.Repeat("a", maxBodyBytes+16)))
	req.ContentLength = -1 // chunked: length unknown up front
	h.ServeHTTP(rec, req)
	if readErr == nil {
		t.Error("oversize chunked body read to completion; MaxBytesReader did not cut it")
	}
}

// TestHandleQueryOverloaded drives the admission-control path end to
// end: with MaxInFlight=1 and the shed policy, a query arriving while
// the only slot is blocked inside a kernel gets HTTP 429 with
// Retry-After — and once the slot frees, the same query succeeds.
func TestHandleQueryOverloaded(t *testing.T) {
	s := demoServer(t)
	ix := bestjoin.NewIndex()
	for d, body := range demoCorpus {
		ix.AddText(d, body)
	}
	s.eng = bestjoin.NewEngine(ix.Compact(), bestjoin.EngineConfig{
		Workers:     1,
		MaxInFlight: 1,
		Overload:    bestjoin.OverloadShed,
	})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blocking := bestjoin.KernelFactory(func() bestjoin.JoinKernel {
		return bestjoin.JoinKernelFunc(func(ls bestjoin.MatchLists) (bestjoin.Matchset, float64, bool) {
			once.Do(func() { close(entered) })
			<-release
			return nil, 0, false
		})
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.eng.Search(context.Background(), bestjoin.EngineQuery{
			Concepts: []bestjoin.Concept{{"lenovo": 1}},
			Join:     blocking,
			K:        1,
		})
	}()
	<-entered

	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=lenovo", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded engine: status %d, want 429 (body %q)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if st := s.eng.Stats(); st.Shed == 0 {
		t.Error("shed query not counted in Stats().Shed")
	}

	close(release)
	<-done
	rec = httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=lenovo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("after slot freed: status %d, want 200 (body %q)", rec.Code, rec.Body)
	}
}

// TestWatchReload pins the hot-reload loop: every signal triggers one
// reload attempt, a failing reload does not stop the loop but is
// recorded on the status (and cleared by the next success), and
// closing the channel ends it.
func TestWatchReload(t *testing.T) {
	ch := make(chan os.Signal)
	attempted := make(chan int)
	calls := 0
	finished := make(chan struct{})
	status := &reloadStatus{}
	go func() {
		defer close(finished)
		watchReload(ch, func() error {
			calls++
			attempted <- calls
			if calls == 2 {
				return fmt.Errorf("simulated corrupt index")
			}
			return nil
		}, status)
	}()
	wantErr := []string{"", "simulated corrupt index", ""}
	for i := 1; i <= 3; i++ {
		ch <- syscall.SIGHUP
		if got := <-attempted; got != i {
			t.Fatalf("reload attempt %d recorded as %d", i, got)
		}
		// The loop records status after the reload func returns; the
		// attempted receive above happens inside it, so poll briefly.
		deadline := time.Now().Add(2 * time.Second)
		for status.get() != wantErr[i-1] && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := status.get(); got != wantErr[i-1] {
			t.Fatalf("after reload %d: lastErr %q, want %q", i, got, wantErr[i-1])
		}
	}
	close(ch)
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("watchReload did not exit when the signal channel closed")
	}
}

// TestBuildIndexAndReloadSwap covers the -save/-index/SIGHUP pipeline
// without a process: save an index, serve it, fail a reload on corrupt
// bytes (old index stays live), then reload a new version.
func TestBuildIndexAndReloadSwap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.idx")

	ix := bestjoin.NewIndex()
	ix.AddText(0, "alpha beta gamma")
	if err := ix.Compact().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	compact, err := buildIndex(nil, 0, path, "")
	if err != nil {
		t.Fatal(err)
	}
	eng := bestjoin.NewEngine(compact, bestjoin.EngineConfig{Workers: 1})
	reload := func() error {
		c, err := bestjoin.LoadCompactIndexFile(path)
		if err != nil {
			return err
		}
		eng.SwapIndex(c)
		return nil
	}

	// Corrupt file on disk: reload must fail and keep the old index.
	if err := os.WriteFile(path, []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reload(); err == nil {
		t.Fatal("reload of corrupt index file succeeded")
	}
	if eng.Index().Docs() != 1 {
		t.Fatalf("old index lost after failed reload: %d docs", eng.Index().Docs())
	}

	// New version on disk: reload must swap it in.
	ix2 := bestjoin.NewIndex()
	ix2.AddText(0, "alpha beta")
	ix2.AddText(1, "gamma delta")
	if err := ix2.Compact().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := reload(); err != nil {
		t.Fatal(err)
	}
	if eng.Index().Docs() != 2 {
		t.Fatalf("reload did not swap: %d docs, want 2", eng.Index().Docs())
	}
	if st := eng.Stats(); st.IndexReloads != 1 {
		t.Errorf("IndexReloads = %d, want 1", st.IndexReloads)
	}
}

// TestRetryAfterSecs pins the backlog/drain-rate → Retry-After
// mapping and its [1, 30] bounds.
func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		backlog  int
		interval time.Duration
		want     int
	}{
		{0, time.Second, 1},            // nothing queued: immediate retry
		{5, 0, 1},                      // no drain estimate yet: floor
		{1, 10 * time.Millisecond, 1},  // sub-second clear: floor
		{3, 500 * time.Millisecond, 2}, // 1.5s rounded up
		{4, 2 * time.Second, 8},
		{100, time.Second, 30}, // deep backlog: capped, not 100s
		{-1, time.Second, 1},
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.backlog, c.interval); got != c.want {
			t.Errorf("retryAfterSecs(%d, %v) = %d, want %d", c.backlog, c.interval, got, c.want)
		}
	}
}

// TestDrainRateInterval pins the completion-ring estimator, including
// wraparound past the ring size.
func TestDrainRateInterval(t *testing.T) {
	var d drainRate
	if got := d.interval(); got != 0 {
		t.Fatalf("empty ring interval %v, want 0", got)
	}
	base := time.Unix(1000, 0)
	d.note(base)
	if got := d.interval(); got != 0 {
		t.Fatalf("single completion interval %v, want 0", got)
	}
	d.note(base.Add(2 * time.Second))
	if got := d.interval(); got != 2*time.Second {
		t.Fatalf("two completions 2s apart: interval %v", got)
	}
	// 40 completions one second apart: the ring retains the last 32,
	// spanning 31 seconds over 31 gaps.
	d = drainRate{}
	for i := 0; i < 40; i++ {
		d.note(base.Add(time.Duration(i) * time.Second))
	}
	if got := d.interval(); got != time.Second {
		t.Fatalf("steady 1/s completions: interval %v, want 1s", got)
	}
}

// TestHandleQueryRetryAfterDerived drives both overload policies end
// to end and checks the Retry-After header reflects the seeded drain
// rate instead of the old hardcoded "1".
func TestHandleQueryRetryAfterDerived(t *testing.T) {
	for _, policy := range []struct {
		name     string
		overload bestjoin.OverloadPolicy
	}{
		{"shed", bestjoin.OverloadShed},
		{"block", bestjoin.OverloadBlock},
	} {
		t.Run(policy.name, func(t *testing.T) {
			s := demoServer(t)
			ix := bestjoin.NewIndex()
			for d, body := range demoCorpus {
				ix.AddText(d, body)
			}
			s.eng = bestjoin.NewEngine(ix.Compact(), bestjoin.EngineConfig{
				Workers:     1,
				MaxInFlight: 1,
				Overload:    policy.overload,
			})
			// Block waits for a slot until the query's context expires;
			// keep the handler's deadline short so the test stays fast.
			s.timeout = 100 * time.Millisecond
			// Seed the drain estimate: recent queries completed 3s
			// apart, so one blocked slot should hint ~3s, not 1.
			base := time.Unix(2000, 0)
			s.done.note(base)
			s.done.note(base.Add(3 * time.Second))

			entered := make(chan struct{})
			release := make(chan struct{})
			var once sync.Once
			blocking := bestjoin.KernelFactory(func() bestjoin.JoinKernel {
				return bestjoin.JoinKernelFunc(func(ls bestjoin.MatchLists) (bestjoin.Matchset, float64, bool) {
					once.Do(func() { close(entered) })
					<-release
					return nil, 0, false
				})
			})
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.eng.Search(context.Background(), bestjoin.EngineQuery{
					Concepts: []bestjoin.Concept{{"lenovo": 1}},
					Join:     blocking,
					K:        1,
				})
			}()
			<-entered
			defer func() { close(release); <-done }()

			rec := httptest.NewRecorder()
			s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=lenovo", nil))
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429 (body %q)", rec.Code, rec.Body)
			}
			ra := rec.Header().Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil {
				t.Fatalf("Retry-After %q not an integer", ra)
			}
			if secs < 3 || secs > 30 {
				t.Fatalf("Retry-After %d with a 3s drain interval and one blocked slot, want within [3, 30]", secs)
			}
		})
	}
}

// TestHandleQueryModes drives the mode and m parameters: OR rescues a
// query whose extra term is absent from the corpus, AND keeps the
// conjunctive contract, and malformed values are 400s.
func TestHandleQueryModes(t *testing.T) {
	s := demoServer(t)

	get := func(url string) (*httptest.ResponseRecorder, *bestjoin.EngineResult) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.handleQuery(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			return rec, nil
		}
		var res bestjoin.EngineResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%s: bad JSON: %v", url, err)
		}
		return rec, &res
	}

	// "zzzunknownzzz" appears nowhere: conjunctive finds nothing,
	// the ranked union still returns the lenovo documents.
	rec, and := get("/query?terms=lenovo,zzzunknownzzz")
	if and == nil {
		t.Fatalf("AND query failed: %d %q", rec.Code, rec.Body)
	}
	if len(and.Docs) != 0 {
		t.Fatalf("conjunctive query with an unknown term returned %d docs", len(and.Docs))
	}
	rec, or := get("/query?terms=lenovo,zzzunknownzzz&mode=or")
	if or == nil {
		t.Fatalf("OR query failed: %d %q", rec.Code, rec.Body)
	}
	if len(or.Docs) == 0 {
		t.Fatal("ranked union returned nothing despite lenovo matches")
	}

	// m=2 of three terms: answerable from documents holding two.
	rec, mofn := get("/query?terms=lenovo,nba,zzzunknownzzz&m=2")
	if mofn == nil {
		t.Fatalf("m-of-n query failed: %d %q", rec.Code, rec.Body)
	}
	if len(mofn.Docs) == 0 {
		t.Fatal("m=2 union returned nothing despite lenovo+nba documents")
	}

	for _, bad := range []string{
		"/query?terms=lenovo&mode=maybe",
		"/query?terms=lenovo&m=-1",
		"/query?terms=lenovo&m=x",
	} {
		rec := httptest.NewRecorder()
		s.handleQuery(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}

	// m larger than the concept count is the engine's range error,
	// surfaced as a 400 rather than a 500 or a silent clamp.
	rec = httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("GET", "/query?terms=lenovo&m=5", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("m>n: status %d, want 400", rec.Code)
	}
}

// TestParseMode pins the flag/parameter mapping.
func TestParseMode(t *testing.T) {
	if m, err := parseMode("and"); err != nil || m != bestjoin.ModeAND {
		t.Errorf("parseMode(and) = %v, %v", m, err)
	}
	if m, err := parseMode("or"); err != nil || m != bestjoin.ModeOR {
		t.Errorf("parseMode(or) = %v, %v", m, err)
	}
	if _, err := parseMode("xor"); err == nil {
		t.Error("parseMode(xor) accepted")
	}
}

// TestCheckTopology pins the start-up refusal of a coordinator that is
// also told to be a partition or a shard of another fleet.
func TestCheckTopology(t *testing.T) {
	for _, c := range []struct {
		shardsAt, shardOf string
		serveShard, ok    bool
	}{
		{"", "", false, true},
		{"", "0/2", true, true},
		{"", "1/2", false, true},
		{"", "", true, true},
		{"a:1,b:2", "", false, true},
		{"a:1,b:2", "0/2", false, false},
		{"a:1,b:2", "", true, false},
		{"a:1,b:2", "0/2", true, false},
	} {
		err := checkTopology(c.shardsAt, c.shardOf, c.serveShard)
		if (err == nil) != c.ok {
			t.Errorf("checkTopology(%q, %q, %v) = %v, want ok %v", c.shardsAt, c.shardOf, c.serveShard, err, c.ok)
		}
	}
}

// shardedServer builds what a -shards-at coordinator serves: a remote
// fleet over the demo corpus, each partition an engine behind the shard
// API of its own loopback HTTP server.
func shardedServer(t *testing.T, shards int) *server {
	t.Helper()
	ix := bestjoin.NewIndex()
	for d, body := range demoCorpus {
		ix.AddText(d, body)
	}
	parts, err := ix.Compact().Partition(shards)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(parts))
	for i, part := range parts {
		mux := http.NewServeMux()
		bestjoin.NewRemoteServer(bestjoin.NewEngine(part, bestjoin.EngineConfig{Workers: 2}),
			bestjoin.RemoteServerConfig{}).Register(mux)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	fleet, err := bestjoin.NewRemoteFleet(addrs, bestjoin.RemoteShardConfig{}, bestjoin.ShardedEngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &server{
		eng:     fleet,
		lex:     bestjoin.BuiltinLexicon(),
		fn:      "med",
		alpha:   0.1,
		k:       3,
		timeout: 5 * time.Second,
	}
}

// TestShardedQueryMatchesSingle drives the -shards-at path through the
// HTTP handler: the fleet's answer must match the single engine's
// document for document, score for score.
func TestShardedQueryMatchesSingle(t *testing.T) {
	single := demoServer(t)
	sharded := shardedServer(t, 3)
	for _, url := range []string{
		"/query?terms=lenovo,nba,partnership",
		"/query?terms=lenovo,nba&mode=or",
		"/query?terms=lenovo,nba,partnership&m=2",
	} {
		recS := httptest.NewRecorder()
		single.handleQuery(recS, httptest.NewRequest("GET", url, nil))
		recC := httptest.NewRecorder()
		sharded.handleQuery(recC, httptest.NewRequest("GET", url, nil))
		if recS.Code != 200 || recC.Code != 200 {
			t.Fatalf("%s: status %d (single) vs %d (sharded)", url, recS.Code, recC.Code)
		}
		var rs, rc bestjoin.EngineResult
		if err := json.Unmarshal(recS.Body.Bytes(), &rs); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(recC.Body.Bytes(), &rc); err != nil {
			t.Fatal(err)
		}
		if len(rs.Docs) != len(rc.Docs) {
			t.Fatalf("%s: %d docs (single) vs %d (sharded)", url, len(rs.Docs), len(rc.Docs))
		}
		for i := range rs.Docs {
			if rs.Docs[i].Doc != rc.Docs[i].Doc || rs.Docs[i].Score != rc.Docs[i].Score {
				t.Fatalf("%s: rank %d differs: %+v vs %+v", url, i, rs.Docs[i], rc.Docs[i])
			}
		}
	}
}

// TestHandleHealthz pins the readiness endpoint on both serving
// shapes: a ready single engine reports its epoch with no shard rows,
// a remote fleet reports one row per shard, and epochs move on a
// reload rolled over /swapindex.
func TestHandleHealthz(t *testing.T) {
	s := demoServer(t)
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("single-engine /healthz: status %d (%s)", rec.Code, rec.Body)
	}
	var h bestjoin.EngineHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz is not EngineHealth JSON: %v", err)
	}
	if !h.Ready || h.Epoch != 0 || h.Docs != len(demoCorpus) || len(h.Shards) != 0 {
		t.Fatalf("single-engine health = %+v", h)
	}

	sh := shardedServer(t, 3)
	rec = httptest.NewRecorder()
	sh.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("sharded /healthz: status %d (%s)", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Ready || len(h.Shards) != 3 || h.Docs != len(demoCorpus) {
		t.Fatalf("sharded health = %+v", h)
	}
	for i, row := range h.Shards {
		if row.Shard != i || !row.Ready || row.Epoch != 0 {
			t.Fatalf("shard row %d = %+v", i, row)
		}
	}

	// A rolling reload ships each shard its partition over /swapindex
	// and moves the fleet epoch and every shard's epoch.
	ix := bestjoin.NewIndex()
	ix.AddText(0, "alpha beta")
	sh.eng.SwapIndex(ix.Compact())
	rec = httptest.NewRecorder()
	sh.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Epoch != 1 || h.Docs != 1 {
		t.Fatalf("post-reload health = %+v", h)
	}
	for _, row := range h.Shards {
		if row.Epoch != 1 {
			t.Fatalf("post-reload shard row = %+v", row)
		}
	}
}

// TestHandleStatsUnionNote pins the /stats degradation note: absent
// while every disjunctive query pruned, present once a kernel without
// a union bound forces an exhaustive union walk.
func TestHandleStatsUnionNote(t *testing.T) {
	s := demoServer(t)
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest("GET", "/stats", nil))
	if strings.Contains(rec.Body.String(), "Note") {
		t.Fatalf("fresh /stats already carries the union note: %s", rec.Body)
	}

	// A bare KernelFunc offers no union bound, so a pruning engine must
	// run the disjunction exhaustively and count it.
	unbounded := bestjoin.KernelFactory(func() bestjoin.JoinKernel {
		return bestjoin.JoinKernelFunc(func(ls bestjoin.MatchLists) (bestjoin.Matchset, float64, bool) {
			return nil, 1, true
		})
	})
	if _, err := s.eng.Search(context.Background(), bestjoin.EngineQuery{
		Concepts: []bestjoin.Concept{{"lenovo": 1}, {"nba": 1}},
		Join:     unbounded,
		K:        2,
		Mode:     bestjoin.ModeOR,
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.eng.Stats(); st.UnionUnpruned == 0 {
		t.Fatal("unbounded disjunctive query not counted in UnionUnpruned")
	}
	rec = httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest("GET", "/stats", nil))
	if !strings.Contains(rec.Body.String(), "without union pruning") {
		t.Fatalf("/stats missing the union-unpruned note: %s", rec.Body)
	}
}

// TestQueryPairServed pins the server-to-engine pair-index contract:
// a two-term query must reach the engine as a Spec-only query (a Join
// closure would win over Spec locally and suppress the pair path), so
// that when the queried pair was precomputed by buildPairs the engine
// serves it off the pair list — and the answer matches a pair-disabled
// server bitwise.
func TestQueryPairServed(t *testing.T) {
	ix := bestjoin.NewIndex()
	for d, body := range synthCorpus(200) {
		ix.AddText(d, body)
	}
	compact := ix.Compact()
	lex := bestjoin.BuiltinLexicon()
	buildPairs(compact, planPairs(compact, lex), specFor("med", 0.1), 0)
	mk := func(nopairs bool) *server {
		return &server{
			eng: bestjoin.NewEngine(compact, bestjoin.EngineConfig{
				Workers: 2, DisablePairIndex: nopairs,
			}),
			lex: lex, fn: "med", alpha: 0.1, k: 3, timeout: 5 * time.Second,
		}
	}
	s, base := mk(false), mk(true)
	// quartz and ribbon are filler vocabulary — in nearly every synth
	// doc, so their pair is among the heaviest and always selected.
	got, err := s.query("quartz,ribbon", 3, s.mode, s.minMatch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.query("quartz,ribbon", 3, base.mode, base.minMatch)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.eng.Stats(); st.PairServed != 1 {
		t.Fatalf("two-term query was not pair-served: %+v", st)
	}
	if st := base.eng.Stats(); st.PairServed != 0 {
		t.Fatal("pair-disabled server served off the pair list")
	}
	if len(got.Docs) != len(want.Docs) {
		t.Fatalf("pair-served %d docs, kernel %d", len(got.Docs), len(want.Docs))
	}
	for i := range got.Docs {
		if got.Docs[i].Doc != want.Docs[i].Doc || got.Docs[i].Score != want.Docs[i].Score {
			t.Fatalf("rank %d: pair-served (%d, %v) vs kernel (%d, %v)", i,
				got.Docs[i].Doc, got.Docs[i].Score, want.Docs[i].Doc, want.Docs[i].Score)
		}
	}
}

// TestLoadServingPlansOnWholeIndex pins the one start-up sequence: a
// -shard-of process gets its partition together with the plan of the
// WHOLE index, lists for its own -fn are built on the partition, and
// -nopairs means no plan and no lists. A second call — what SIGHUP
// does — returns the same.
func TestLoadServingPlansOnWholeIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.idx")
	ix := bestjoin.NewIndex()
	for d, body := range synthCorpus(300) {
		ix.AddText(d, body)
	}
	whole := ix.Compact()
	if err := whole.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	lex := bestjoin.BuiltinLexicon()
	src := &source{idxPath: path, shardOf: "1/2", lex: lex,
		pairs: true, spec: specFor("med", 0.1), pairBudget: 1}
	for _, when := range []string{"start-up", "reload"} {
		c, plan, err := src.loadServing()
		if err != nil {
			t.Fatal(err)
		}
		if want := planPairs(whole, lex); plan.Len() == 0 || !reflect.DeepEqual(plan, want) {
			t.Fatalf("%s: plan of %d pairs is not the whole index's (%d pairs)", when, plan.Len(), want.Len())
		}
		if c.Docs() != whole.Docs() || c.Bytes() >= whole.Bytes() {
			t.Fatalf("%s: served index is not a partition: %d docs, %d of %d bytes", when, c.Docs(), c.Bytes(), whole.Bytes())
		}
		if n := c.ConceptPairsCount(); n != 1 {
			t.Fatalf("%s: %d own-spec lists at a one-list budget", when, n)
		}
	}
	src.pairs = false
	c, plan, err := src.loadServing()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 0 || c.ConceptPairsCount() != 0 {
		t.Fatalf("-nopairs: %d planned pairs, %d lists", plan.Len(), c.ConceptPairsCount())
	}
	src.shardOf = "2/2"
	if _, _, err := src.loadServing(); err == nil {
		t.Fatal("bad -shard-of accepted")
	}
}

// TestArmPairsServesForeignSpec is the shard process in miniature: the
// engine starts with lists for its own -fn, is queried under another
// one, and — armed with the plan — serves that spec's pair queries from
// lists it built in the background, at the same epoch, with the same
// answer. An engine that was not armed never does.
func TestArmPairsServesForeignSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.idx")
	ix := bestjoin.NewIndex()
	for d, body := range synthCorpus(60) {
		ix.AddText(d, body)
	}
	if err := ix.Compact().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	src := &source{idxPath: path, lex: bestjoin.BuiltinLexicon(),
		pairs: true, spec: specFor("med", 0.1), pairBudget: 0}
	serve := func(arm bool) *server {
		c, plan, err := src.loadServing()
		if err != nil {
			t.Fatal(err)
		}
		eng := bestjoin.NewEngine(c, bestjoin.EngineConfig{Workers: 2})
		if arm {
			src.armPairs(eng, plan)
		}
		return &server{eng: eng, lex: src.lex, fn: "win", alpha: 0.1, k: 3, timeout: 5 * time.Second}
	}
	armed, bare := serve(true), serve(false)
	want, err := bare.query("quartz,ribbon", 3, bare.mode, bare.minMatch)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for armed.eng.Stats().PairServed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("armed engine never served the foreign spec from a pair list")
		}
		got, err := armed.query("quartz,ribbon", 3, armed.mode, armed.minMatch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Docs) != len(want.Docs) {
			t.Fatalf("%d docs, want %d", len(got.Docs), len(want.Docs))
		}
		for i := range got.Docs {
			if got.Docs[i].Doc != want.Docs[i].Doc || got.Docs[i].Score != want.Docs[i].Score {
				t.Fatalf("rank %d: (%d, %v), want (%d, %v)", i,
					got.Docs[i].Doc, got.Docs[i].Score, want.Docs[i].Doc, want.Docs[i].Score)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := armed.eng.Health(); h.Epoch != 0 {
		t.Fatalf("attach moved the epoch to %d", h.Epoch)
	}
	if st := bare.eng.Stats(); st.PairServed != 0 {
		t.Fatal("an engine without the plan served a foreign spec from a pair list")
	}
}
