package engine

import (
	"context"
	"errors"
	"fmt"
)

// Admission control, extracted from Engine so every query-serving tier
// can bound its concurrency the same way: a single engine admits at
// its own gate, and a shard coordinator's children each keep their own
// gate, so per-shard walkers are protected even when queries
// arrive through the coordinator.

// ErrOverloaded is returned by Search when admission control rejects
// the query: the engine is at Config.MaxInFlight and either the policy
// is OverloadShed or the context expired while waiting for a slot.
// Servers should map it to a retryable status (HTTP 429 + Retry-After)
// rather than an internal error.
var ErrOverloaded = errors.New("engine: overloaded")

// OverloadPolicy selects what Search does when Config.MaxInFlight
// queries are already in flight.
type OverloadPolicy int

const (
	// OverloadBlock (the default) waits for a slot until the query's
	// context is done, then returns ErrOverloaded. Callers get
	// backpressure shaped by their own deadlines.
	OverloadBlock OverloadPolicy = iota
	// OverloadShed fails fast with ErrOverloaded, never queueing.
	// Under sustained overload this keeps latency flat for the queries
	// that are admitted.
	OverloadShed
)

// admitter is a MaxInFlight admission gate: a semaphore plus the
// at-capacity policy. The zero admitter admits everything.
type admitter struct {
	sem  chan struct{} // admission semaphore; nil = unlimited
	shed bool          // true = OverloadShed
}

// newAdmitter builds a gate admitting maxInFlight concurrent queries
// (≤ 0 means unlimited).
func newAdmitter(maxInFlight int, policy OverloadPolicy) admitter {
	a := admitter{shed: policy == OverloadShed}
	if maxInFlight > 0 {
		a.sem = make(chan struct{}, maxInFlight)
	}
	return a
}

// admit takes one slot, returning its release function. At the cap it
// sheds immediately or waits until the caller's context gives up,
// returning an error wrapping ErrOverloaded either way. release is
// non-nil exactly when err is nil.
func (a *admitter) admit(ctx context.Context) (release func(), err error) {
	if a.sem == nil {
		return func() {}, nil
	}
	if a.shed {
		select {
		case a.sem <- struct{}{}:
		default:
			return nil, ErrOverloaded
		}
	} else {
		select {
		case a.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", ErrOverloaded, ctx.Err())
		}
	}
	return func() { <-a.sem }, nil
}

// inFlight reports the slots currently taken (0 when unlimited — an
// ungated admitter tracks nothing).
func (a *admitter) inFlight() int { return len(a.sem) }
