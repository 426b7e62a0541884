package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// answer is the part of proxserve's /query response the harness reads.
type answer struct {
	Docs      []answerDoc
	Partial   bool `json:"partial"`
	Degraded  bool `json:"degraded"`
	Evaluated int
	Elapsed   time.Duration
}

type answerDoc struct {
	Doc   int
	Score float64
	Set   []answerMatch
}

type answerMatch struct {
	Loc   int
	Score float64
}

// hash covers everything that defines the answer — ranked doc ids,
// scores and witness matchsets, bitwise — and nothing that may vary
// between correct runs (Elapsed, evaluated/pruned counts).
func (a *answer) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, d := range a.Docs {
		put(uint64(d.Doc))
		put(math.Float64bits(d.Score))
		put(uint64(len(d.Set)))
		for _, m := range d.Set {
			put(uint64(m.Loc))
			put(math.Float64bits(m.Score))
		}
	}
	return h.Sum64()
}

// outcome classifies one request; anything but ok counts as failed.
type outcome uint8

const (
	ok outcome = iota
	transportError
	shed      // HTTP 429
	badStatus // any other non-200
	flagged   // 200 but partial or degraded
	mismatch  // 200 but not the expected answer
)

var outcomeNames = [...]string{"ok", "transport_error", "shed_429", "bad_status", "partial_or_degraded", "mismatch"}

// sample is one timed request.
type sample struct {
	query   int           // index into plan.Distinct
	latency time.Duration // from due time (open loop) or send (closed loop)
	lag     time.Duration // open loop: dispatch time − due time
	due     time.Time     // open loop: scheduled send time; closed loop: send time
	done    time.Time
	bytes   int
	outcome outcome
}

// client sends a plan's queries to one server and checks each answer
// against the hash recorded for that query (0 = nothing recorded yet).
type client struct {
	http   *http.Client
	base   string
	urls   []string
	expect []uint64
}

func newClient(base string, p plan, conns int) *client {
	c := &client{
		http: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
			},
		},
		base:   base,
		urls:   make([]string, len(p.Distinct)),
		expect: make([]uint64, len(p.Distinct)),
	}
	for i, q := range p.Distinct {
		c.urls[i] = "http://" + base + "/query?" + q.key()
	}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends query q and returns the decoded answer (nil unless 200).
func (c *client) do(ctx context.Context, q int) (*answer, sample) {
	s := sample{query: q}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[q], nil)
	if err != nil {
		s.outcome = transportError
		return nil, s
	}
	resp, err := c.http.Do(req)
	if err != nil {
		s.outcome = transportError
		return nil, s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.bytes = len(body)
	switch {
	case err != nil:
		s.outcome = transportError
	case resp.StatusCode == http.StatusTooManyRequests:
		s.outcome = shed
	case resp.StatusCode != http.StatusOK:
		s.outcome = badStatus
	}
	if s.outcome != ok {
		return nil, s
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		s.outcome = badStatus
		return nil, s
	}
	switch {
	case a.Partial || a.Degraded:
		s.outcome = flagged
	case c.expect[q] != 0 && a.hash() != c.expect[q]:
		s.outcome = mismatch
	}
	return &a, s
}

// closedLoop runs `clients` callers that each send their next request
// only after the previous answer, for dur.
func closedLoop(ctx context.Context, c *client, stream []int, clients int, dur time.Duration) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) && ctx.Err() == nil {
				q := stream[int(next.Add(1)-1)%len(stream)]
				start := time.Now()
				_, s := c.do(ctx, q)
				s.due, s.done = start, time.Now()
				s.latency = s.done.Sub(start)
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// openLoop sends stream at a fixed arrival rate for dur regardless of
// how the server responds. The dispatcher never waits on a response: it
// hands each request over at its due time, and at most conns
// connections work the queue. Latency runs from the due time, so a
// stalled server's delay is charged to every request queued behind it
// (no coordinated omission); lag is the dispatcher's own lateness.
func openLoop(ctx context.Context, c *client, stream []int, rate float64, dur time.Duration, conns int) []sample {
	n := int(rate * dur.Seconds())
	type job struct {
		query int
		due   time.Time
		lag   time.Duration
	}
	jobs := make(chan job, n) // one send per request: the dispatcher never blocks
	samples := make([]sample, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				_, s := c.do(ctx, j.query)
				s.due, s.done = j.due, time.Now()
				s.latency = s.done.Sub(j.due)
				s.lag = j.lag
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	interval := float64(time.Second) / rate
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{query: stream[i%len(stream)], due: due, lag: time.Since(due)}
	}
	close(jobs)
	wg.Wait()
	return samples
}

// percentile returns the p-th percentile (nearest rank) of sorted
// values and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[rank-1], len(sorted) - rank
}

func sortedMS(samples []sample, pick func(sample) time.Duration, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep == nil || keep(s) {
			out = append(out, float64(pick(s))/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// phaseCount is the sent/succeeded/failed line of one phase.
type phaseCount struct {
	Phase     string         `json:"phase"`
	Sent      int            `json:"sent"`
	Succeeded int            `json:"succeeded"`
	Failed    int            `json:"failed"`
	ByOutcome map[string]int `json:"failed_by_outcome,omitempty"`
}

func countPhase(name string, samples []sample) phaseCount {
	pc := phaseCount{Phase: name, Sent: len(samples)}
	for _, s := range samples {
		if s.outcome == ok {
			pc.Succeeded++
			continue
		}
		pc.Failed++
		if pc.ByOutcome == nil {
			pc.ByOutcome = map[string]int{}
		}
		pc.ByOutcome[outcomeNames[s.outcome]]++
	}
	return pc
}

func (pc phaseCount) String() string {
	s := fmt.Sprintf("%-12s sent %6d  succeeded %6d  failed %d", pc.Phase, pc.Sent, pc.Succeeded, pc.Failed)
	if pc.Failed > 0 {
		s += fmt.Sprintf(" %v", pc.ByOutcome)
	}
	return s
}
