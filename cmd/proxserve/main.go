// Command proxserve serves weighted proximity best-join queries over
// an indexed corpus with the concurrent engine of internal/engine —
// the end-to-end "query + corpus → ranked answers" path.
//
//	proxserve doc1.txt doc2.txt ...   # index the given files (one doc each)
//	proxserve -synth 2000             # index a synthetic 2000-doc corpus
//	proxserve                         # index a small embedded demo corpus
//
// By default proxserve runs a line-oriented REPL on stdin: each line
// is a comma-separated list of query terms, answered with the top 5
// documents that match every term, or the query string /query takes
// (terms=a,b&mode=or&m=2&k=3); ":stats" prints the engine's
// observability snapshot and ":quit" exits. With -http it serves HTTP
// instead:
//
//	GET /query?terms=a,b         top 5 documents matching every term, as JSON
//	GET /query?terms=a,b&k=10    top 10
//	GET /query?terms=a,b&mode=or top-k ranked union (any term may match)
//	GET /query?terms=a,b,c&m=2   m-of-n: documents matching ≥ 2 concepts
//	GET /stats                   engine stats as JSON
//	GET /healthz                 readiness: index epoch, decoded bytes + per-shard rows
//	GET /debug/vars              expvar (includes bestjoin.engine)
//	GET /debug/pprof/...         profiling endpoints (only with -pprof)
//
// Query terms are expanded into concepts through the embedded lexical
// graph (exact stem = 1.0, one edge = 0.7, …), mirroring proxquery.
// Every query runs under -timeout; queries that exceed it return their
// best-so-far answer marked partial.
//
// The server is built to stay up under abuse and partial failure:
// every HTTP timeout is set (slow-loris connections are cut), request
// bodies are capped, and -max-inflight bounds concurrently admitted
// queries — at the cap the engine queues briefly or, with -shed, fails
// fast, and either way an overloaded query maps to HTTP 429 with a
// Retry-After header rather than unbounded latency. The Retry-After
// value is derived from the current backlog and the observed query
// drain rate (bounded to 1–30 seconds), so clients back off roughly
// as long as the queue actually needs to clear.
//
// A process is either an engine over an index or a coordinator over
// remote shard processes. A shard process is an engine that serves one
// doc-partition of the corpus and exposes the remote shard API:
//
//	proxserve -synth 2000 -serve-shard -shard-of 0/2 -http :7601
//	proxserve -synth 2000 -serve-shard -shard-of 1/2 -http :7602
//
// and a coordinator holds no index of its own (so it refuses -shard-of
// and -serve-shard):
//
//	proxserve -shards-at 127.0.0.1:7601,127.0.0.1:7602 -http :7600
//
// Its per-shard answers rank-merge into results bitwise identical to a
// single engine's; /healthz reports one readiness row per shard, /stats
// rolls the fleet up, and a SIGHUP reload of -index rolls shard by shard.
//
// Remote shard calls get the full robustness stack: per-attempt
// deadline budgets carved from the query deadline, bounded retries
// with jittered exponential backoff, a hedged duplicate request once
// an attempt outlives a fixed delay (50ms), and a per-shard circuit
// breaker. With -quorum M the coordinator answers from any M of N
// shards — a degraded but sound subset (flagged in the JSON body and
// with an X-Degraded header) instead of an error — while M-1 or fewer
// answering shards still fail the query.
//
// With -index the server loads a checksummed index file written by
// -save (or CompactIndex.SaveFile) instead of indexing a corpus, and
// SIGHUP hot-reloads that file: in-flight queries finish on the old
// index, new queries see the new one, and a corrupt or torn file is
// rejected — the server keeps serving the index it already has.
//
// In HTTP mode the server shuts down gracefully on SIGINT or SIGTERM:
// the listener closes immediately and in-flight requests get up to
// -drain to finish; a second signal kills the process at once.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bestjoin"
	"bestjoin/internal/index"
	"bestjoin/internal/lexicon"
)

func main() {
	var (
		fn      = flag.String("fn", "med", "scoring family: win, med, or max")
		alpha   = flag.Float64("alpha", 0.1, "distance-decay rate of the scoring family (finite, > 0)")
		workers = flag.Int("workers", 0, "walkers per query, each walking and joining its own document ranges (0 = GOMAXPROCS)")
		cache   = flag.Int("cache", 0, "ignored: the engine keeps no match-list cache (accepted so existing command lines still start)")
		timeout = flag.Duration("timeout", 2*time.Second, "per-query deadline")
		drain   = flag.Duration("drain", 5*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
		synth   = flag.Int("synth", 0, "index a synthetic corpus of this many documents instead of files")
		httpad  = flag.String("http", "", "serve HTTP on this address instead of the stdin REPL")

		serveShard   = flag.Bool("serve-shard", false, "expose the remote shard API (/shardquery, /swapindex, /shardstats) so a -shards-at coordinator can drive this process")
		shardOf      = flag.String("shard-of", "", "serve partition i of n of the built index, given as i/n (shard processes of a doc-partitioned fleet)")
		shardsAt     = flag.String("shards-at", "", "comma-separated host:port list of remote shard processes to coordinate over (no local index is built; not with -shard-of or -serve-shard)")
		quorum       = flag.Int("quorum", 0, "minimum remote shards that must answer a query: 0 = all (strict), 1..N arms degraded partial answers")
		shardTimeout = flag.Duration("shard-timeout", 2*time.Second, "per-attempt deadline budget for each remote shard call")
		inflight     = flag.Int("max-inflight", 64, "maximum concurrently admitted queries (0 = unlimited)")
		shed         = flag.Bool("shed", false, "at the in-flight cap, shed queries immediately instead of queueing")
		idxPath      = flag.String("index", "", "serve this saved index file instead of indexing a corpus (SIGHUP reloads it)")
		savePath     = flag.String("save", "", "after indexing, save the checksummed index to this path")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof (debug only)")
	)
	flag.Parse()
	if err := checkTopology(*shardsAt, *shardOf, *serveShard); err != nil {
		log.Fatalf("proxserve: %v", err)
	}
	spec, err := kernelSpec(*fn, *alpha)
	if err != nil {
		log.Fatalf("proxserve: %v", err)
	}

	// A -shards-at coordinator holds no index of its own; every other
	// process builds (or loads) one, optionally cut down to its -shard-of
	// partition, and serves it from one engine.
	src := &source{
		files: flag.Args(), synth: *synth, idxPath: *idxPath, savePath: *savePath,
		shardOf: *shardOf,
	}
	var compact *bestjoin.CompactIndex
	if *shardsAt == "" {
		if compact, err = src.loadServing(); err != nil {
			log.Fatalf("proxserve: %v", err)
		}
	}
	overload := bestjoin.OverloadBlock
	if *shed {
		overload = bestjoin.OverloadShed
	}
	// The server is written against the Searcher contract, so a remote
	// fleet and a single engine are interchangeable from here on.
	var eng bestjoin.Searcher
	var publish func(string) error
	if *shardsAt != "" {
		fleet, err := bestjoin.NewRemoteFleet(splitAddrs(*shardsAt),
			bestjoin.RemoteShardConfig{Timeout: *shardTimeout},
			bestjoin.ShardedEngineConfig{Quorum: *quorum})
		if err != nil {
			log.Fatalf("proxserve: %v", err)
		}
		eng, publish = fleet, fleet.Publish
		fmt.Printf("coordinating %d remote shards at %s (quorum %d)\n",
			len(splitAddrs(*shardsAt)), *shardsAt, *quorum)
	} else {
		e := bestjoin.NewEngine(compact, bestjoin.EngineConfig{
			Workers:     *workers,
			CacheLists:  *cache,
			MaxInFlight: *inflight,
			Overload:    overload,
		})
		eng, publish = e, e.Publish
		fmt.Printf("indexed %d documents (%d bytes compressed)\n", compact.Docs(), compact.Bytes())
	}
	if err := publish("bestjoin.engine"); err != nil {
		log.Printf("proxserve: %v", err)
	}
	srv := &server{
		eng:     eng,
		lex:     bestjoin.BuiltinLexicon(),
		spec:    spec,
		timeout: *timeout,
		reload:  &reloadStatus{},
	}

	if *httpad != "" {
		mux := newMux(srv, *pprofOn)
		if *serveShard {
			// Mount the remote shard API next to the human-facing routes;
			// /healthz stays proxserve's own (same shape and status
			// mapping the shard client expects).
			bestjoin.NewRemoteServer(eng).RegisterShardOnly(mux)
		}
		if *idxPath != "" {
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go watchReload(hup, func() error { return src.reload(eng) }, srv.reload)
		}
		fmt.Printf("serving on %s (try /query?terms=lenovo,nba,partnership and /debug/vars)\n", *httpad)
		if err := runServer(newHTTPServer(*httpad, mux), nil, *drain); err != nil {
			log.Fatal(err)
		}
		return
	}
	srv.repl(os.Stdin, os.Stdout)
}

// buildIndex resolves the -index/-save/corpus flags into a compacted
// index: a saved index file when -index is given, otherwise the corpus
// (files, synthetic, or embedded demo), optionally persisted with
// crash-safe SaveFile semantics when -save is given.
func buildIndex(files []string, synth int, idxPath, savePath string) (*bestjoin.CompactIndex, error) {
	if idxPath != "" {
		return bestjoin.LoadCompactIndexFile(idxPath)
	}
	corpus, err := loadCorpus(files, synth)
	if err != nil {
		return nil, err
	}
	ix := bestjoin.NewIndex()
	for d, body := range corpus {
		ix.AddText(d, body)
	}
	compact := ix.Compact()
	if savePath != "" {
		if err := compact.SaveFile(savePath); err != nil {
			return nil, err
		}
	}
	return compact, nil
}

// watchReload applies reload for every signal on ch — the SIGHUP
// hot-reload loop. A failed reload (missing, torn, or corrupt index
// file) is logged and the server keeps serving the index it already
// has, because a stale answer beats no answer; the failure is also
// recorded on status (when given) so /healthz can surface it — a
// fleet silently stuck on an old index is an outage in slow motion.
// A later successful reload clears the record.
func watchReload(ch <-chan os.Signal, reload func() error, status *reloadStatus) {
	for range ch {
		err := reload()
		if status != nil {
			status.set(err)
		}
		if err != nil {
			log.Printf("proxserve: reload failed, keeping current index: %v", err)
			continue
		}
		log.Printf("proxserve: index reloaded")
	}
}

// reloadStatus is the sticky record of the most recent hot reload's
// outcome, read by /healthz.
type reloadStatus struct {
	mu      sync.Mutex
	lastErr string
}

func (rs *reloadStatus) set(err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err != nil {
		rs.lastErr = err.Error()
	} else {
		rs.lastErr = ""
	}
}

func (rs *reloadStatus) get() string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.lastErr
}

// cutPartition resolves -shard-of: "i/n" doc-partitions the index
// into n pieces and keeps piece i (global document ids survive, so a
// fleet of such processes merges into a single engine's answer).
func cutPartition(c *bestjoin.CompactIndex, spec string) (*bestjoin.CompactIndex, error) {
	is, ns, ok := strings.Cut(spec, "/")
	if !ok {
		return nil, fmt.Errorf("bad -shard-of %q (want i/n)", spec)
	}
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if err1 != nil || err2 != nil || n <= 0 || i < 0 || i >= n {
		return nil, fmt.Errorf("bad -shard-of %q (want 0 ≤ i < n)", spec)
	}
	parts, err := c.Partition(n)
	if err != nil {
		return nil, err
	}
	return parts[i], nil
}

// checkTopology refuses flags that would make one process two
// topologies. On a -shards-at coordinator, -shard-of would cut every
// reloaded -index to partition i/n and roll that piece across the whole
// fleet, and -serve-shard would nest the coordinator in another fleet.
func checkTopology(shardsAt, shardOf string, serveShard bool) error {
	switch {
	case shardsAt == "":
		return nil
	case shardOf != "":
		return errors.New("-shard-of cannot be combined with -shards-at: a coordinator serves the whole index across its shards")
	case serveShard:
		return errors.New("-serve-shard cannot be combined with -shards-at: a coordinator is not a shard of another fleet")
	}
	return nil
}

// kernelSpec resolves -fn and -alpha into the kernel every query of
// this process carries, refusing at start-up what a query would
// otherwise fail on: an unknown family or an alpha that is not finite
// and positive.
func kernelSpec(fn string, alpha float64) (bestjoin.JoinSpec, error) {
	spec := bestjoin.JoinSpec{Family: fn, Alpha: alpha, Valid: true}
	if _, err := spec.Factory(); err != nil {
		return spec, fmt.Errorf("-fn %q -alpha %v: %w", fn, alpha, err)
	}
	return spec, nil
}

// splitAddrs parses the -shards-at list.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// newMux builds proxserve's HTTP routing table explicitly rather than
// through http.DefaultServeMux, so nothing an imported package
// registers globally is exposed by accident. /debug/vars is always on
// (it only reads counters). The pprof profiling handlers are mounted
// only when -pprof is set: they are a debug-only surface — profiles
// reveal internals and cost CPU while running — so production
// deployments keep the flag off (the default).
func newMux(srv *server, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", srv.handleQuery)
	mux.HandleFunc("/stats", srv.handleStats)
	mux.HandleFunc("/healthz", srv.handleHealthz)
	mux.Handle("/debug/vars", expvar.Handler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// maxBodyBytes caps HTTP request bodies. The API is GET-shaped, so any
// sizeable body is either a mistake or an attack; 1 MiB is generous.
const maxBodyBytes = 1 << 20

// newHTTPServer wraps the handler (nil = http.DefaultServeMux) in the
// server hardening layer: every timeout set, so slow-loris headers,
// dribbled bodies, stalled response reads, and idle keep-alive
// connections all get cut, and request bodies are capped.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	if h == nil {
		h = http.DefaultServeMux
	}
	return &http.Server{
		Addr:              addr,
		Handler:           limitBody(h),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// limitBody rejects requests whose declared body exceeds maxBodyBytes
// with 413 up front and caps undeclared (chunked) bodies with
// http.MaxBytesReader, so no handler can be made to buffer an
// unbounded body.
func limitBody(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/swapindex" {
			// The shard API ships whole index partitions here and bounds
			// its own (much larger) bodies; the 1 MiB cap would break it.
			h.ServeHTTP(w, r)
			return
		}
		if r.ContentLength > maxBodyBytes {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h.ServeHTTP(w, r)
	})
}

// runServer serves hs until it fails or the process receives SIGINT or
// SIGTERM, then shuts down gracefully: the listener closes immediately
// (so health checks and load balancers see the port go away) while
// in-flight requests get up to drain to finish. A second signal during
// the drain kills the process the default way, since signal delivery
// is restored as soon as the first one arrives.
//
// ln is the listener to serve on; nil means listen on hs.Addr. A clean
// shutdown — whether signal-initiated or by a Close/Shutdown call
// elsewhere — returns nil.
func runServer(hs *http.Server, ln net.Listener, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if ln != nil {
			errc <- hs.Serve(ln)
		} else {
			errc <- hs.ListenAndServe()
		}
	}()

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills immediately
		log.Printf("proxserve: shutting down, draining for up to %v", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			// Drain budget exhausted: cut the remaining connections.
			hs.Close()
			return fmt.Errorf("proxserve: drain incomplete: %w", err)
		}
		return nil
	}
}

type server struct {
	eng     bestjoin.Searcher
	lex     *bestjoin.Lexicon
	spec    bestjoin.JoinSpec // -fn/-alpha, carried by every query
	timeout time.Duration
	done    drainRate
	// reload records the SIGHUP hot-reload loop's last outcome for
	// /healthz; nil (tests building a bare server) reads as "no reload
	// has failed".
	reload *reloadStatus
}

// defaultK is the number of documents a request that names no k gets.
const defaultK = 5

// request is one query as /query and the REPL take it: the
// comma-separated terms, K, and the mode with its m-of-n threshold.
type request struct {
	terms    string
	k        int
	mode     bestjoin.QueryMode
	minMatch int
}

// parseRequest reads the parameters of a query string
// (terms=a,b&mode=or&m=2&k=3). Only terms is required: by default a
// request is an AND query for the top defaultK documents.
func parseRequest(v url.Values) (request, error) {
	req := request{terms: v.Get("terms"), k: defaultK}
	if req.terms == "" {
		return req, errors.New("missing terms parameter")
	}
	if kq := v.Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n <= 0 {
			return req, errors.New("bad k parameter")
		}
		req.k = n
	}
	switch v.Get("mode") {
	case "", "and":
	case "or":
		req.mode = bestjoin.ModeOR
	default:
		return req, errors.New("bad mode parameter (want and or or)")
	}
	if mm := v.Get("m"); mm != "" {
		n, err := strconv.Atoi(mm)
		if err != nil || n < 0 {
			return req, errors.New("bad m parameter")
		}
		req.minMatch = n
	}
	return req, nil
}

// parseLine reads a REPL line: bare comma-separated terms, or, when it
// holds an '=', the query string /query takes.
func parseLine(line string) (request, error) {
	v := url.Values{"terms": {line}}
	if strings.Contains(line, "=") {
		var err error
		if v, err = url.ParseQuery(line); err != nil {
			return request{}, err
		}
	}
	return parseRequest(v)
}

// query answers one request; successful completions feed the
// drain-rate estimate behind Retry-After.
func (s *server) query(req request) (*bestjoin.EngineResult, error) {
	var concepts []bestjoin.Concept
	for _, t := range strings.Split(req.terms, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		concepts = append(concepts, s.concept(t))
	}
	if len(concepts) == 0 {
		return nil, fmt.Errorf("no query terms")
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	// Spec only, no Join closure: the engine resolves the identical
	// kernel from the declarative spec (the remote tier's bitwise-
	// proven path).
	res, err := s.eng.Search(ctx, bestjoin.EngineQuery{
		Concepts: concepts, Spec: s.spec, K: req.k, Mode: req.mode, MinMatch: req.minMatch,
	})
	if err == nil {
		s.done.note(time.Now())
	}
	return res, err
}

// drainRate records the timestamps of recent query completions — a
// small ring, lock-held only for the copy — so the server can estimate
// how quickly the engine clears work.
type drainRate struct {
	mu   sync.Mutex
	ring [32]time.Time
	n    int
}

func (d *drainRate) note(t time.Time) {
	d.mu.Lock()
	d.ring[d.n%len(d.ring)] = t
	d.n++
	d.mu.Unlock()
}

// interval returns the mean spacing between retained completions, or 0
// when fewer than two have been observed (no estimate yet).
func (d *drainRate) interval() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n < 2 {
		return 0
	}
	k := d.n
	if k > len(d.ring) {
		k = len(d.ring)
	}
	newest := d.ring[(d.n-1)%len(d.ring)]
	oldest := d.ring[(d.n-k)%len(d.ring)]
	if !newest.After(oldest) {
		return 0
	}
	return newest.Sub(oldest) / time.Duration(k-1)
}

// retryAfterSecs turns a backlog (queries admitted) and an
// observed per-query drain interval into a Retry-After hint: roughly
// how long the backlog needs to clear, bounded to [1, 30] seconds so
// clients neither hammer an overloaded server (a flat "1" invites an
// immediate stampede) nor abandon one that is seconds from healthy.
// With no estimate yet the floor of 1 applies.
func retryAfterSecs(backlog int, interval time.Duration) int {
	if backlog <= 0 || interval <= 0 {
		return 1
	}
	secs := int(math.Ceil((time.Duration(backlog) * interval).Seconds()))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// retryAfter derives the Retry-After header value from the engine's
// queries in flight and the observed drain rate.
func (s *server) retryAfter() int {
	return retryAfterSecs(s.eng.Stats().InFlight, s.done.interval())
}

// concept expands one query term through the lexical graph: the term
// itself at score 1 plus its graph neighborhood at 1 − 0.3·distance.
func (s *server) concept(term string) bestjoin.Concept {
	return expandConcept(s.lex, term)
}

// expandConcept is the term → concept expansion of the query path.
func expandConcept(lex *bestjoin.Lexicon, term string) bestjoin.Concept {
	c := index.ConceptFromGraph(lex.Neighborhood(term, 3), lexicon.ScorePerEdge)
	if len(c) == 0 {
		c = bestjoin.Concept{term: 1}
	}
	return c
}

// source is everything that decides what this process serves: where
// the index comes from and which partition of it. Start-up and every
// SIGHUP reload go through loadServing, so the two cannot drift apart.
type source struct {
	files    []string
	synth    int
	idxPath  string
	savePath string
	shardOf  string // "i/n", or "" to serve the whole index
}

// loadServing builds (or loads) the index and cuts it to the -shard-of
// partition. A coordinator gets the whole index: it ships partitions to
// its shards on a roll.
func (src *source) loadServing() (*bestjoin.CompactIndex, error) {
	c, err := buildIndex(src.files, src.synth, src.idxPath, src.savePath)
	if err != nil || src.shardOf == "" {
		return c, err
	}
	return cutPartition(c, src.shardOf)
}

// reload is the SIGHUP reload: load what this process serves again,
// then swap the index in (a coordinator rolls it across its shards).
func (src *source) reload(eng bestjoin.Searcher) error {
	c, err := src.loadServing()
	if err != nil {
		return err
	}
	eng.SwapIndex(c)
	return nil
}

func (s *server) repl(in io.Reader, out io.Writer) {
	fmt.Fprintf(out, "enter comma-separated query terms or a /query string such as terms=a,b&mode=or&k=3 (:stats for counters, :quit to exit)\n> ")
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ":quit" || line == ":q":
			return
		case line == ":stats":
			b, _ := json.MarshalIndent(s.eng.Stats(), "", "  ")
			fmt.Fprintln(out, string(b))
		default:
			req, err := parseLine(line)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			res, err := s.query(req)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			printResult(out, res)
		}
		fmt.Fprint(out, "> ")
	}
}

func printResult(out io.Writer, res *bestjoin.EngineResult) {
	state := ""
	if res.Partial {
		state = " [PARTIAL: deadline hit]"
	}
	fmt.Fprintf(out, "%d candidates, %d evaluated, %d pruned in %v%s\n",
		res.Candidates, res.Evaluated, res.Pruned, res.Elapsed.Round(time.Microsecond), state)
	for rank, d := range res.Docs {
		fmt.Fprintf(out, "#%d doc %d  score %.4f  matchset %v\n", rank+1, d.Doc, d.Score, d.Set)
	}
	if len(res.Docs) == 0 {
		fmt.Fprintln(out, "no documents matched the query")
	}
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.query(req)
	if err != nil {
		// Overload is the client's cue to back off and retry, not a bad
		// request: 429 plus Retry-After, the contract load balancers and
		// well-behaved clients already understand. The hint scales with
		// the backlog and the observed drain rate.
		if errors.Is(err, bestjoin.ErrOverloaded) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
			http.Error(w, "engine overloaded, retry later", http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if res.Degraded {
		// Header first: clients streaming the body (or not parsing it)
		// still see that the answer is a sound subset, not the full one.
		w.Header().Set("X-Degraded", "true")
	}
	writeJSON(w, queryResponse{EngineResult: res, Degraded: res.Degraded, Partial: res.Partial})
}

// queryResponse wraps the engine result with explicit lower-case
// degraded/partial flags, so API clients need not know the engine's
// field casing to notice an answer that is best-effort: degraded
// means part of the work failed and was dropped (including quorum
// answers missing failed shards — see FailedShards), partial means
// the deadline cut evaluation short. Both answers remain sound
// subsets of the healthy one.
type queryResponse struct {
	*bestjoin.EngineResult
	Degraded bool `json:"degraded"`
	Partial  bool `json:"partial"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	out := struct {
		bestjoin.EngineStats
		Note string `json:",omitempty"`
	}{EngineStats: st}
	if st.UnionUnpruned > 0 {
		out.Note = fmt.Sprintf("%d disjunctive queries ran without union pruning "+
			"(no usable score bound for the deployed kernel); results are correct but slower — see UnionUnpruned",
			st.UnionUnpruned)
	}
	writeJSON(w, out)
}

// handleHealthz reports the Searcher's readiness: the current index
// epoch, the corpus size, the index's decoded bytes, and — when
// serving a sharded fleet — one row per shard. Ready maps to 200, anything else to 503, so load
// balancers can use the endpoint unmodified.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.eng.Health()
	if s.reload != nil && h.Err == "" {
		// Surface the SIGHUP reload loop's last failure: a server stuck
		// on a stale index stays Ready (it is still serving) but the
		// reason is visible to whoever polls health.
		h.Err = s.reload.get()
	}
	if !h.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(h)
		return
	}
	writeJSON(w, h)
}

// writeJSON writes v as one line of compact JSON: these bodies are read
// by programs, and indenting them cost the server more than encoding
// them did. The REPL's :stats, read by people, stays indented.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// loadCorpus assembles the document set: the given files (one document
// each), a synthetic corpus, or the embedded demo corpus.
func loadCorpus(files []string, synth int) ([]string, error) {
	if synth > 0 {
		return synthCorpus(synth), nil
	}
	if len(files) == 0 {
		return demoCorpus, nil
	}
	docs := make([]string, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		docs[i] = string(b)
	}
	return docs, nil
}

// synthCorpus generates a deterministic corpus with three planted
// concept-word groups at varying densities over a filler vocabulary,
// so queries like "lenovo,nba,partnership" have non-trivial answers.
func synthCorpus(n int) []string {
	rng := rand.New(rand.NewSource(42))
	filler := strings.Fields("quartz ribbon saddle timber umbrella violet walnut yarn " +
		"zeppelin bottle curtain dolphin ember flute glacier helmet ivory jacket kernel lantern")
	planted := [][]string{
		{"lenovo", "dell", "hewlett"},
		{"nba", "olympics", "basketball"},
		{"partnership", "alliance", "deal"},
	}
	docs := make([]string, n)
	for d := range docs {
		words := make([]string, 80)
		for i := range words {
			words[i] = filler[rng.Intn(len(filler))]
		}
		for g, group := range planted {
			if rng.Intn(4) <= 2-g || d%7 == g {
				words[rng.Intn(len(words))] = group[rng.Intn(len(group))]
			}
		}
		docs[d] = strings.Join(words, " ")
	}
	return docs
}

// demoCorpus is the small news corpus of examples/indexed.
var demoCorpus = []string{
	`As part of the new deal, Lenovo will become the official PC partner
	 of the NBA, and it will be marketing its NBA affiliation in the US and
	 in China. The laptop maker has a similar marketing and technology
	 partnership with the Olympic Games.`,
	`Dell announced quarterly earnings today. The PC maker said laptop
	 shipments grew, while desktop sales were flat.`,
	`The NBA finals drew record audiences, and the basketball league
	 announced a new broadcast deal with the network.`,
	`Hewlett-Packard opened a research lab in the valley this week, while
	 the Olympics committee met in Lausanne, and a partnership between two
	 regional banks was announced late on Friday.`,
	`The museum opened a new exhibition of renaissance ceramics from
	 Jingdezhen, drawing visitors from across the region.`,
}
