// Package faultinject provides deterministic, seedable fault-injection
// points for the retrieval engine's chaos tests. Each injection site
// names one place where production systems really fail — a
// user-supplied scoring kernel panicking, an index's postings decoding
// to garbage, a slow disk, a dropped connection — and the code calls the
// matching hook (MaybePanic, MaybeSleep, Fires) at that spot.
//
// The hooks are compiled in two shapes, selected by the `faultinject`
// build tag:
//
//   - Default builds (off.go): every hook is an empty function the
//     compiler inlines away, so production binaries carry zero
//     injection overhead and no way to trigger faults.
//   - Test builds with -tags faultinject (on.go): hooks consult the
//     plan installed by Activate. Firing is pseudo-random but fully
//     determined by (seed, site, per-site call ordinal), so a failing
//     chaos run replays with the same seed.
//
// The chaos differential harness (internal/engine/chaos_test.go, run
// by `make chaos`) activates these sites and asserts the engine never
// crashes, stays race-clean, returns bitwise-identical results when
// not degraded, and returns a sound subset when degraded.
package faultinject

import "time"

// Site identifies one injection point in the engine.
type Site uint8

const (
	// KernelJoin fires just before a worker runs a best-join kernel;
	// a firing panics, simulating a hostile user-supplied scorefn.
	KernelJoin Site = iota
	// ConceptDecode fires just before a stem's postings are decoded
	// into plain arrays (index.Compact.Stem, on the stem's first use);
	// a firing panics the way corrupt posting bytes fail the decode.
	ConceptDecode
	// DecodeLatency fires at the same spot but sleeps instead of
	// panicking, simulating a slow or contended storage layer.
	DecodeLatency
	// NetLatency fires in the remote shard server just before a query
	// is handled; a firing sleeps, simulating a congested network or a
	// GC-paused shard process.
	NetLatency
	// NetDrop fires at the same spot but aborts the connection without
	// writing a response — the TCP reset / mid-flight crash case.
	NetDrop
	// NetStatus fires before handling and answers HTTP 500 instead —
	// a crashing handler or a misconfigured proxy in front of a shard.
	NetStatus
	// NetCorrupt fires after a response is built and truncates its
	// bytes, simulating a torn write or a corrupting middlebox.
	NetCorrupt

	numSites
)

// String names the site for logs and test labels.
func (s Site) String() string {
	switch s {
	case KernelJoin:
		return "kernel-join-panic"
	case ConceptDecode:
		return "concept-decode-corrupt"
	case DecodeLatency:
		return "decode-latency"
	case NetLatency:
		return "net-latency"
	case NetDrop:
		return "net-conn-drop"
	case NetStatus:
		return "net-http-500"
	case NetCorrupt:
		return "net-corrupt-bytes"
	}
	return "unknown-site"
}

// Config is one injection plan: a seed making every firing decision
// reproducible, a firing rate per site (0 = never, 1 = always), and
// the latency injected when DecodeLatency fires.
type Config struct {
	Seed    int64
	Rates   map[Site]float64
	Latency time.Duration
}

// Panic is the value injected panics carry, so recovery layers and
// tests can tell an injected fault from a genuine bug.
type Panic struct {
	Site Site
}

func (p Panic) String() string { return "faultinject: " + p.Site.String() }
