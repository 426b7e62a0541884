//go:build faultinject

package faultinject

import (
	"sync/atomic"
	"time"
)

// faultinject build: hooks consult the active plan. A firing decision
// is a pure function of (seed, site, per-site call ordinal), so a run
// with a fixed seed fires the same faults at the same call counts —
// goroutine interleaving may reorder *which document* hits a fault,
// but the fault density and the replay under one seed are stable.

// Enabled reports whether this binary was built with fault injection
// compiled in (-tags faultinject).
const Enabled = true

type plan struct {
	seed    uint64
	rates   [numSites]float64
	latency time.Duration
	calls   [numSites]atomic.Uint64
	fired   [numSites]atomic.Uint64
}

var active atomic.Pointer[plan]

// Activate installs an injection plan; it replaces any previous plan
// and resets the per-site counters. Hooks fire only between Activate
// and Deactivate.
func Activate(cfg Config) {
	p := &plan{seed: uint64(cfg.Seed), latency: cfg.Latency}
	for s, r := range cfg.Rates {
		if s < numSites {
			p.rates[s] = r
		}
	}
	active.Store(p)
}

// Deactivate disarms every site.
func Deactivate() { active.Store(nil) }

// Fired reports how many times a site has fired under the current
// plan (0 when no plan is active).
func Fired(s Site) uint64 {
	if p := active.Load(); p != nil {
		return p.fired[s].Load()
	}
	return 0
}

// decide draws the site's next firing decision.
func decide(s Site) (*plan, bool) {
	p := active.Load()
	if p == nil || p.rates[s] <= 0 {
		return p, false
	}
	n := p.calls[s].Add(1)
	if p.rates[s] < 1 {
		h := mix(p.seed ^ uint64(s)<<56 ^ n)
		if float64(h>>11)/(1<<53) >= p.rates[s] {
			return p, false
		}
	}
	p.fired[s].Add(1)
	return p, true
}

// mix is the splitmix64 finalizer: a cheap, well-distributed hash of
// the decision coordinates.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MaybePanic panics with a Panic value when the site fires.
func MaybePanic(s Site) {
	if _, fire := decide(s); fire {
		panic(Panic{Site: s})
	}
}

// MaybeSleep sleeps the plan's latency when the site fires.
func MaybeSleep(s Site) {
	if p, fire := decide(s); fire && p.latency > 0 {
		time.Sleep(p.latency)
	}
}

// Fires draws the site's next firing decision and reports it — the
// general-purpose hook for sites whose fault the caller injects itself
// (dropping a connection, corrupting response bytes).
func Fires(s Site) bool {
	_, fire := decide(s)
	return fire
}
