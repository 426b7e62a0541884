package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/shard"
)

// ErrUnavailable marks a shard call that failed for transport-level
// reasons — connection refused, attempt timeout, 5xx, torn or corrupt
// response bytes, open circuit breaker. Unavailable errors are the
// retryable class; everything else (bad query, overload, parent
// cancellation) is not.
var ErrUnavailable = errors.New("remote: shard unavailable")

// ShardConfig tunes one remote shard client's robustness machinery.
// The zero value gets serving-grade defaults; negative values disable
// the corresponding mechanism.
type ShardConfig struct {
	// Timeout is the per-attempt deadline budget. Each attempt gets
	// min(Timeout, time left on the query context) — the budget rides
	// the wire too, so the shard stops working when the client stops
	// waiting. 0 means 2s.
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried (attempts
	// = Retries+1). Only unavailability retries — a 400 or 429 means
	// the shard is alive and answering. 0 means 2; < 0 disables.
	Retries int
	// Backoff is the base delay before the first retry, doubled per
	// retry with ±50% jitter. 0 means 25ms.
	Backoff time.Duration
	// HedgeAfter is how long an attempt may run before a duplicate
	// request is launched against the same shard (first answer wins —
	// queries are idempotent reads, so hedging is safe). It is a fixed
	// delay because a latency-quantile trigger would re-send a healthy
	// shard's slowest, most expensive queries by construction. 0 means
	// 50ms; < 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold opens the circuit breaker after this many
	// consecutive failed searches; while open, searches fail fast
	// without touching the network until BreakerCooldown passes, then
	// a single probe is admitted (half-open). 0 means 5; < 0 disables.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// admitting a probe. 0 means 500ms.
	BreakerCooldown time.Duration
	// Client optionally overrides the HTTP client (tests, custom
	// transports). nil means a dedicated client with sane pooling.
	Client *http.Client
}

func (cfg ShardConfig) resolved() ShardConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 2
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	switch {
	case cfg.HedgeAfter == 0:
		cfg.HedgeAfter = 50 * time.Millisecond
	case cfg.HedgeAfter < 0:
		cfg.HedgeAfter = 0 // disabled
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = 5
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0 // disabled
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 500 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return cfg
}

// Shard is an HTTP client for one shard process, implementing
// shard.Child so a shard.Coordinator composes over remote children
// exactly as over local engines. Safe for concurrent use.
type Shard struct {
	base string
	cfg  ShardConfig
	br   breaker

	hedged      atomic.Uint64
	retried     atomic.Uint64
	timeouts    atomic.Uint64
	breakerOpen atomic.Uint64
}

// Shard slots into a Coordinator as a child.
var _ shard.Child = (*Shard)(nil)

// NewShard builds a client for the shard process at base — a
// "host:port" or a full URL.
func NewShard(base string, cfg ShardConfig) *Shard {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	cfg = cfg.resolved()
	s := &Shard{base: base, cfg: cfg}
	s.br.threshold = cfg.BreakerThreshold
	s.br.cooldown = cfg.BreakerCooldown
	return s
}

// Base returns the shard's base URL.
func (s *Shard) Base() string { return s.base }

// Pin returns the shard's search call. A remote child cannot pin an
// index generation across processes — the process answers with
// whatever epoch it serves — which is exactly why Coordinator.Health
// refuses to call a mixed-epoch fleet ready.
func (s *Shard) Pin() shard.SearchFunc { return s.Search }

// Search runs one query against the shard with the full robustness
// stack: breaker fail-fast, per-attempt deadline budgets, hedging
// after HedgeAfter, and bounded jittered-backoff retries on
// unavailability.
func (s *Shard) Search(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if !s.br.allow() {
		s.breakerOpen.Add(1)
		return nil, fmt.Errorf("%w: circuit breaker open for %s", ErrUnavailable, s.base)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		res, err := s.hedgedDo(ctx, q)
		if err == nil {
			s.br.success()
			return res, nil
		}
		if !errors.Is(err, ErrUnavailable) {
			// The shard answered (bad query, overload) or the caller
			// gave up — either way the path to the shard works, so the
			// breaker resets unless the parent context died.
			if ctx.Err() == nil {
				s.br.success()
			}
			return nil, err
		}
		lastErr = err
		if attempt >= s.cfg.Retries {
			break
		}
		if err := s.backoff(ctx, attempt); err != nil {
			break
		}
		s.retried.Add(1)
	}
	s.br.failure()
	return nil, lastErr
}

// backoff sleeps the jittered exponential delay before retry number
// attempt+1, or returns early when the query context dies first.
func (s *Shard) backoff(ctx context.Context, attempt int) error {
	d := s.cfg.Backoff << uint(attempt)
	// ±50% jitter decorrelates retry storms across a fleet.
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// hedgedDo runs one logical attempt, launching a duplicate request if
// the first outlives HedgeAfter. First success wins; a permanent
// failure from either wins immediately (waiting for the twin cannot
// change a 400).
func (s *Shard) hedgedDo(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if s.cfg.HedgeAfter <= 0 {
		return s.once(ctx, q)
	}
	type outcome struct {
		res *engine.Result
		err error
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make(chan outcome, 2)
	launch := func() {
		go func() {
			r, err := s.once(actx, q)
			out <- outcome{r, err}
		}()
	}
	launch()
	outstanding := 1
	timer := time.NewTimer(s.cfg.HedgeAfter)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case <-timer.C:
			if outstanding == 1 {
				s.hedged.Add(1)
				launch()
				outstanding++
			}
		case o := <-out:
			if o.err == nil {
				return o.res, nil
			}
			if !errors.Is(o.err, ErrUnavailable) {
				return nil, o.err
			}
			if firstErr == nil {
				firstErr = o.err
			}
			outstanding--
			if outstanding == 0 {
				return nil, firstErr
			}
		}
	}
}

// once is a single wire attempt: carve the deadline budget, encode
// (fresh floor snapshot each attempt — the fleet floor may have risen
// since the last one), POST, classify the outcome, validate the body.
func (s *Shard) once(ctx context.Context, q engine.Query) (*engine.Result, error) {
	budget := s.cfg.Timeout
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, ctx.Err()
		}
		if rem < budget {
			budget = rem
		}
	}
	wq, err := EncodeQuery(q, budget)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(wq)
	if err != nil {
		return nil, err
	}
	actx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, s.base+"/shardquery", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context died; not the shard's fault.
			return nil, ctx.Err()
		}
		if actx.Err() != nil {
			s.timeouts.Add(1)
			return nil, fmt.Errorf("%w: attempt deadline (%v) exceeded: %v", ErrUnavailable, budget, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("shard %s: %w", s.base, engine.ErrOverloaded)
	case resp.StatusCode >= 500:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("%w: shard answered %d", ErrUnavailable, resp.StatusCode)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("remote: shard rejected query (%d): %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxResultBytes+1))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if actx.Err() != nil {
			s.timeouts.Add(1)
		}
		return nil, fmt.Errorf("%w: reading response: %v", ErrUnavailable, err)
	}
	if len(raw) > MaxResultBytes {
		return nil, fmt.Errorf("%w: response exceeds %d bytes", ErrUnavailable, MaxResultBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var wr WireResult
	if err := dec.Decode(&wr); err != nil {
		// Truncated or mangled bytes — indistinguishable from a torn
		// stream, so it is the retryable class.
		return nil, fmt.Errorf("%w: corrupt response: %v", ErrUnavailable, err)
	}
	if err := wr.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return wr.ToResult(), nil
}

// SwapIndex ships a new index partition to the shard process. The
// transfer gets a generous deadline — index bytes dwarf query bytes —
// and is not retried: the coordinator's roll machinery records the
// failure and aborts the roll instead.
func (s *Shard) SwapIndex(idx *index.Compact) error {
	timeout := 10 * s.cfg.Timeout
	if timeout < 10*time.Second {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/swapindex", bytes.NewReader(idx.Marshal()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("remote: swap to %s: %w", s.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("remote: swap to %s answered %d: %s", s.base, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// Stats merges the shard process's own counters (best effort — an
// unreachable shard contributes zeros) with this client's transport
// counters, so a coordinator rollup sees both sides of the wire.
func (s *Shard) Stats() engine.Stats {
	var st engine.Stats
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/shardstats", nil)
	if err == nil {
		if resp, err := s.cfg.Client.Do(req); err == nil {
			if resp.StatusCode == http.StatusOK {
				json.NewDecoder(io.LimitReader(resp.Body, MaxResultBytes)).Decode(&st)
			}
			resp.Body.Close()
		}
	}
	st.Hedged += s.hedged.Load()
	st.Retried += s.retried.Load()
	st.ShardTimeouts += s.timeouts.Load()
	st.BreakerOpen += s.breakerOpen.Load()
	return st
}

// Health polls the shard process's /healthz. An unreachable or
// unparsable shard is not ready, with the reason in Err.
func (s *Shard) Health() engine.Health {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		return engine.Health{Err: err.Error()}
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return engine.Health{Err: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return engine.Health{Err: fmt.Sprintf("healthz answered %d", resp.StatusCode)}
	}
	var h engine.Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxQueryBytes)).Decode(&h); err != nil {
		return engine.Health{Err: "corrupt healthz body: " + err.Error()}
	}
	return h
}

// NewFleet composes a coordinator over remote shard processes at the
// given addresses — the one-call path from a list of "host:port"
// strings to an engine.Searcher. cfg carries the coordinator knobs
// (Quorum, roll gating); scfg tunes every shard client identically.
func NewFleet(addrs []string, scfg ShardConfig, cfg shard.Config) (*shard.Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("remote: no shard addresses")
	}
	children := make([]shard.Child, len(addrs))
	for i, a := range addrs {
		children[i] = NewShard(a, scfg)
	}
	return shard.NewFromChildren(children, cfg)
}

// breaker is a consecutive-failure circuit breaker with a half-open
// probe: after threshold consecutive failed searches it fails fast
// for cooldown, then admits one probe; the probe's success resets it,
// its failure re-opens it.
type breaker struct {
	mu        sync.Mutex
	threshold int // 0 = disabled
	cooldown  time.Duration
	fails     int
	openUntil time.Time
}

func (b *breaker) allow() bool {
	if b.threshold == 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	now := time.Now()
	if now.Before(b.openUntil) {
		return false
	}
	// Half-open: this caller becomes the probe; pushing openUntil
	// forward keeps concurrent callers failing fast until the probe
	// resolves.
	b.openUntil = now.Add(b.cooldown)
	return true
}

func (b *breaker) success() {
	if b.threshold == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.openUntil = time.Time{}
}

func (b *breaker) failure() {
	if b.threshold == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= b.threshold {
		b.openUntil = time.Now().Add(b.cooldown)
	}
}
