package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bestjoin"
	"bestjoin/internal/engine"
	"bestjoin/internal/index"
)

const (
	// oracleSample is how many distinct queries the reference ranker
	// grades per workload (all of them where a workload has fewer).
	oracleSample = 20
	// Validity of an open-loop phase. Over 134 runs on the 2-core
	// reference host the generator's lag p99 had a floor of 1.1 ms (the
	// guest's timer granularity), a median of 1.6 ms and a 90th percentile
	// of 4.3 ms (the waking dispatcher waits out a scheduler slice while
	// both cores run server workers); five of them, and six of forty
	// later runs, showed 12–48 ms, in stretches where the host stalled
	// the whole guest. Above maxLagP99 the generator, not the server,
	// shaped the numbers. A backlog above maxBacklogShare of the requests
	// sent means the queue was growing: the rate is not sustained.
	maxLagP99       = 10 * time.Millisecond
	maxBacklogShare = 0.02
	// streamLength is the planned stream; phases wrap around it.
	streamLength = 1 << 14
)

// attrRow is one row of the attribution table.
type attrRow struct {
	Name string  `json:"name"`
	US   float64 `json:"us"`
}

// result is everything one workload run produced.
type result struct {
	Workload      string             `json:"workload"`
	Why           string             `json:"why"`
	Seed          int64              `json:"seed"`
	Commands      []string           `json:"proxserve_commands"`
	RateQPS       float64            `json:"open_loop_rate_qps"`
	LimitMS       float64            `json:"latency_limit_ms"`
	ClosedSeconds float64            `json:"closed_loop_seconds"`
	OpenSeconds   float64            `json:"open_loop_seconds"`
	Clients       int                `json:"closed_loop_clients"`
	Phases        []phaseCount       `json:"phases"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Invalid       []string           `json:"invalid,omitempty"`
	Unsustained   bool               `json:"rate_not_sustained,omitempty"` // the backlog half of Invalid
	EndToEnd      map[string]float64 `json:"end_to_end"`
	PerLayer      map[string]float64 `json:"per_layer"`
	Samples       int                `json:"open_loop_samples"`
	BeyondP95     int                `json:"samples_beyond_p95"`
	BeyondP99     int                `json:"samples_beyond_p99"`
	C1MeanUS      float64            `json:"concurrency1_mean_us,omitempty"`
	Attribution   []attrRow          `json:"attribution,omitempty"`
	SelfTimes     []selfTime         `json:"span_self_times,omitempty"`
	Hashes        map[string]uint64  `json:"-"` // query key → answer hash
}

// env is what every workload of one run shares.
type env struct {
	spec    *benchSpec
	bin     string // proxserve binary
	dir     string // temp dir: index file, server logs
	outDir  string // trace files
	seed    int64
	seconds float64
	trace   bool
	conns   int // closed-loop clients and open-loop connections: nproc
	ds      *dataset
	log     io.Writer
	prov    provenance
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// runWorkload starts the workload's servers, checks their answers,
// drives the timed phases and, when tracing, the traced pass.
func (e *env) runWorkload(ctx context.Context, w *workload) (*result, error) {
	r := &result{Workload: w.Name, Why: e.spec.why(w.Name), Seed: e.seed, RateQPS: w.Rate, Clients: e.conns,
		LimitMS:       float64(w.Limit) / float64(time.Millisecond),
		ClosedSeconds: e.seconds / 5, OpenSeconds: e.seconds * 4 / 5,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Hashes: map[string]uint64{}}
	for _, d := range e.spec.PerLayer {
		r.PerLayer[d.Name] = 0 // layers a workload bypasses report 0
	}

	served, loadDur, err := loadServed(e.ds, w.Family)
	if err != nil {
		return nil, err
	}
	p := buildPlan(w, queryClasses(e.seed, served, w.Family), e.seed, streamLength)
	if len(p.Distinct) == 0 {
		return nil, fmt.Errorf("%s: no queries", w.Name)
	}

	start := time.Now()
	fl, err := startFleet(ctx, e.bin, e.dir, w, e.ds.path)
	if err != nil {
		return nil, err
	}
	startDur := time.Since(start)
	defer fl.stop()
	r.Commands = fl.commandLines()
	r.EndToEnd["setup_s"] = (e.ds.buildDur + startDur).Seconds()
	r.EndToEnd["index_mb"] = float64(e.ds.bytes) / (1 << 20)
	r.PerLayer["index.load_file_ms"] = float64(loadDur) / float64(time.Millisecond)
	r.PerLayer["index.bytes_per_posting"] = float64(e.ds.bytes) / float64(e.ds.postings)

	c := newClient(fl.base, p, e.conns)
	defer c.close()
	if err := e.warmUpAndCheck(ctx, w, p, served, c, r); err != nil {
		return nil, err
	}

	closedDur := time.Duration(r.ClosedSeconds * float64(time.Second))
	closed := closedLoop(ctx, c, p.Stream, e.conns, closedDur)
	open := openLoop(ctx, c, p.Stream, w.Rate, time.Duration(r.OpenSeconds*float64(time.Second)), e.conns)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.PerLayer["proxserve.rss_mb"] = rss
	r.Phases = append(r.Phases, countPhase("closed_loop", closed), countPhase("open_loop", open))
	r.EndToEnd["throughput_qps"] = closedLoopThroughput(closed)
	openLoopMetrics(p, open, w.Limit, r)

	if e.trace {
		tr := newTracer()
		if err := tracedPass(ctx, w, p, served, c, r, tr); err != nil {
			return nil, err
		}
		sum := 0.0
		for _, row := range r.Attribution {
			sum += row.US
		}
		r.PerLayer["attribution.c1_mean_us"] = r.C1MeanUS
		r.PerLayer["attribution.residual_share"] = ratio(r.C1MeanUS-sum, r.C1MeanUS)
		r.SelfTimes = selfTimes(tr.spans)
		if err := writeJSON(filepath.Join(e.outDir, "trace-"+w.Name+".json"), map[string]any{
			"provenance": e.prov, "workload": w.Name, "spans": tr.spans}); err != nil {
			return nil, err
		}
	}
	for _, pc := range r.Phases {
		r.Attempted += pc.Sent
		r.Failed += pc.Failed
	}
	r.PerLayer["proxload.failed_share"] = ratio(float64(r.Failed), float64(r.Attempted))
	return r, nil
}

// warmUpAndCheck sends every distinct query once and records its
// answer's hash, which every later response for that query must equal.
// A seeded sample is graded against the reference ranker, and every
// answer is compared with an in-process single engine over the same
// index — so remote_fleet and warm_and, whose streams are identical,
// both equal the same single-engine answers.
func (e *env) warmUpAndCheck(ctx context.Context, w *workload, p plan, served *index.Compact, c *client, r *result) error {
	warm := phaseCount{Phase: "warm_up"}
	answers := make([]*answer, len(p.Distinct))
	for i := range p.Distinct {
		a, s := c.do(ctx, i)
		warm.Sent++
		if s.outcome != ok {
			warm.Failed++
			e.logf("%s: warm-up %s: %s", w.Name, p.Distinct[i].key(), outcomeNames[s.outcome])
			continue
		}
		warm.Succeeded++
		answers[i] = a
		c.expect[i] = a.hash()
		r.Hashes[p.Distinct[i].key()] = c.expect[i]
	}

	or, err := newOracle(served, w.Family)
	if err != nil {
		return err
	}
	sample := rand.New(rand.NewSource(e.seed ^ 0x0ac1e)).Perm(len(p.Distinct))
	sample = sample[:min(oracleSample, len(sample))]
	for _, i := range sample {
		for _, t := range p.Distinct[i].Terms {
			or.lists(t) // fill the cache before the graders share it
		}
	}
	ref := phaseCount{Phase: "reference"}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int, len(sample)) // one send per sampled query
	for _, i := range sample {
		next <- i
	}
	close(next)
	for g := 0; g < e.conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if answers[i] == nil {
					continue // already counted as a warm-up failure
				}
				err := checkAnswer(answers[i], or.topK(p.Distinct[i], defaultK))
				mu.Lock()
				ref.Sent++
				if err != nil {
					ref.Failed++
					e.logf("%s: reference mismatch on %s: %v", w.Name, p.Distinct[i].key(), err)
				} else {
					ref.Succeeded++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	single := phaseCount{Phase: "single_engine"}
	eng := engine.New(served, engineConfig(w))
	lex := bestjoin.BuiltinLexicon()
	for i, q := range p.Distinct {
		if answers[i] == nil {
			continue
		}
		single.Sent++
		res, err := eng.Search(ctx, engineQuery(lex, q, w.Family))
		if err != nil || answerOf(res).hash() != c.expect[i] {
			single.Failed++
			e.logf("%s: server answer differs from in-process engine on %s (err %v)", w.Name, q.key(), err)
			continue
		}
		single.Succeeded++
	}
	r.Phases = append(r.Phases, warm, ref, single)
	return nil
}

// closedLoopThroughput returns correct answers per second over the
// whole closed-loop phase, first send to last answer.
func closedLoopThroughput(closed []sample) float64 {
	if len(closed) == 0 {
		return 0
	}
	first, last := closed[0].due, closed[0].done
	for _, s := range closed {
		if s.due.Before(first) {
			first = s.due
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	return float64(countPhase("", closed).Succeeded) / last.Sub(first).Seconds()
}

// openLoopMetrics derives the latency metrics and the generator's
// validity from every sample of the open-loop phase. A request that
// failed still carries the time until its failure was known, and misses
// the latency limit whatever that time was.
func openLoopMetrics(p plan, open []sample, limit time.Duration, r *result) {
	latency := func(s sample) time.Duration { return s.latency }
	all := sortedMS(open, latency, nil)
	r.Samples = len(all)
	r.EndToEnd["latency_p50_ms"], _ = percentile(all, 50)
	r.PerLayer["proxserve.latency_p95_ms"], r.BeyondP95 = percentile(all, 95)
	within := 0
	for _, s := range open {
		if s.outcome == ok && s.latency <= limit {
			within++
		}
	}
	r.EndToEnd["within_limit_share"] = ratio(float64(within), float64(len(open)))
	r.PerLayer["proxserve.latency_p99_ms"], r.BeyondP99 = percentile(all, 99)
	for _, class := range []string{"topic", "wide5", "pair2", "rare"} {
		cl := sortedMS(open, latency, func(s sample) bool { return p.Distinct[s.query].Class == class })
		r.PerLayer["proxserve.class_p50_ms."+class], _ = percentile(cl, 50)
	}

	var bytes, sheds, backlog int
	var end time.Time // the phase ends when its last request falls due
	for _, s := range open {
		if s.due.After(end) {
			end = s.due
		}
	}
	for _, s := range open {
		bytes += s.bytes
		if s.outcome == shed {
			sheds++
		}
		if s.done.After(end) {
			backlog++
		}
	}
	lag := sortedMS(open, func(s sample) time.Duration { return s.lag }, nil)
	lagP99, _ := percentile(lag, 99)
	r.PerLayer["proxload.send_lag_p99_ms"] = lagP99
	r.PerLayer["proxload.backlog_end"] = float64(backlog)
	r.PerLayer["proxserve.response_bytes"] = ratio(float64(bytes), float64(len(open)))
	r.PerLayer["proxserve.shed_share"] = ratio(float64(sheds), float64(len(open)))
	if lagP99 > float64(maxLagP99)/float64(time.Millisecond) {
		r.Invalid = append(r.Invalid, fmt.Sprintf("generator send lag p99 %.3f ms > %v", lagP99, maxLagP99))
	}
	if float64(backlog) > maxBacklogShare*float64(len(open)) {
		r.Unsustained = true
		r.Invalid = append(r.Invalid, fmt.Sprintf("backlog %d of %d requests at phase end: rate not sustained", backlog, len(open)))
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
