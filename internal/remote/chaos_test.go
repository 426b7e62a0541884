//go:build faultinject

package remote

// Chaos harness for the networked shard tier, compiled only with
// -tags faultinject (`make chaos` runs it under -race). The injected
// faults are the network's own failure modes — latency spikes, torn
// connections, 500s from a dying handler, truncated response bytes —
// fired inside the shard server by deterministic seeded plans. The
// contract under fire: a quorum fleet's non-degraded answer is
// bitwise identical to the fault-free baseline, a degraded answer is
// a sound subset of the healthy full ranking, retries and timeouts
// are counted, and once injection stops the fleet answers bitwise
// healthy again. Hard query errors are tolerated only as a rare
// residue of every replica of an attempt failing at once.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/faultinject"
	"bestjoin/internal/shard"
)

func TestRemoteChaosNetworkFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	docs := remoteCorpus(rng)
	compact := buildCompact(t, docs)
	healthy := engine.New(compact, engine.Config{Workers: 2})
	spec := engine.KernelSpec{Family: "med", Alpha: 0.05, Valid: true}
	q := engine.Query{
		Concepts: remoteConcepts(rng),
		Spec:     spec,
		K:        8,
	}
	baseline, err := healthy.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	fullQ := q
	fullQ.K = compact.Docs()
	full, err := healthy.Search(context.Background(), fullQ)
	if err != nil {
		t.Fatal(err)
	}

	addrs := startFleet(t, compact, 2, engine.Config{Workers: 2})

	cases := []struct {
		name         string
		rates        map[faultinject.Site]float64
		latency      time.Duration
		timeout      time.Duration
		hedgeAfter   time.Duration
		wantTimeouts bool
		wantHedges   bool
	}{
		{
			name:    "latency",
			rates:   map[faultinject.Site]float64{faultinject.NetLatency: 0.3},
			latency: 150 * time.Millisecond, timeout: 40 * time.Millisecond,
			hedgeAfter: 10 * time.Millisecond, wantTimeouts: true, wantHedges: true,
		},
		{
			name:    "conn-drop",
			rates:   map[faultinject.Site]float64{faultinject.NetDrop: 0.3},
			timeout: time.Second, hedgeAfter: -1,
		},
		{
			name:    "http-500",
			rates:   map[faultinject.Site]float64{faultinject.NetStatus: 0.3},
			timeout: time.Second, hedgeAfter: -1,
		},
		{
			name:    "corrupt-bytes",
			rates:   map[faultinject.Site]float64{faultinject.NetCorrupt: 0.3},
			timeout: time.Second, hedgeAfter: -1,
		},
		{
			name: "mixed",
			rates: map[faultinject.Site]float64{
				faultinject.NetLatency: 0.1, faultinject.NetDrop: 0.1,
				faultinject.NetStatus: 0.1, faultinject.NetCorrupt: 0.1,
			},
			latency: 150 * time.Millisecond, timeout: 40 * time.Millisecond,
			hedgeAfter: 10 * time.Millisecond,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Breaker off: seeded bursts would otherwise open it and turn
			// transient faults into minutes of synthetic unavailability,
			// which is the breaker test's subject, not chaos soundness.
			fleet, err := NewFleet(addrs, ShardConfig{
				Timeout: tc.timeout, Backoff: time.Millisecond, Retries: 3,
				HedgeAfter: tc.hedgeAfter, BreakerThreshold: -1,
			}, shard.Config{Quorum: 1})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				faultinject.Activate(faultinject.Config{
					Seed: seed, Rates: tc.rates, Latency: tc.latency,
				})
				const rounds = 10
				hardErrs := 0
				for round := 0; round < rounds; round++ {
					res, err := fleet.Search(context.Background(), q)
					if err != nil {
						// Every replica of every shard attempt failed at once —
						// allowed to happen, but only rarely.
						hardErrs++
						continue
					}
					if res.Degraded || res.Partial {
						assertRemoteChaosSubset(t, fmt.Sprintf("%s seed %d round %d", tc.name, seed, round),
							res.Docs, full.Docs)
					} else if !sameDocs(res.Docs, baseline.Docs) {
						t.Fatalf("%s seed %d round %d: non-degraded answer differs from baseline:\ngot  %+v\nwant %+v",
							tc.name, seed, round, res.Docs, baseline.Docs)
					}
				}
				if hardErrs > rounds/2 {
					t.Fatalf("%s seed %d: %d/%d queries failed outright — retries not absorbing faults",
						tc.name, seed, hardErrs, rounds)
				}
				faultinject.Deactivate()
			}

			// Injection off: the same fleet must answer bitwise healthy.
			res, err := fleet.Search(context.Background(), q)
			if err != nil || res.Degraded {
				t.Fatalf("fleet unhealthy after chaos: %v %+v", err, res)
			}
			if !sameDocs(res.Docs, baseline.Docs) {
				t.Fatalf("post-chaos answer differs from baseline: %+v", res.Docs)
			}

			st := fleet.Stats()
			if st.Retried == 0 {
				t.Fatalf("%s: no retries counted despite injected faults; Stats %+v", tc.name, st)
			}
			if tc.wantTimeouts && st.ShardTimeouts == 0 {
				t.Fatalf("%s: no shard timeouts counted despite injected latency", tc.name)
			}
			if tc.wantHedges && st.Hedged == 0 {
				t.Fatalf("%s: no hedges counted despite injected latency", tc.name)
			}
		})
	}
}

func sameDocs(a, b []engine.DocResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// assertRemoteChaosSubset holds a degraded or partial answer to the
// soundness contract: every returned document carries its exact
// healthy score and matchset, in rank order — faults may shrink the
// answer, never corrupt it.
func assertRemoteChaosSubset(t *testing.T, label string, got, full []engine.DocResult) {
	t.Helper()
	for i, d := range got {
		found := false
		for _, w := range full {
			if w.Doc != d.Doc {
				continue
			}
			if w.Score != d.Score || len(w.Set) != len(d.Set) {
				t.Fatalf("%s: degraded doc %d mis-scored: got %v/%v, healthy %v/%v",
					label, d.Doc, d.Score, d.Set, w.Score, w.Set)
			}
			for j := range d.Set {
				if d.Set[j] != w.Set[j] {
					t.Fatalf("%s: degraded doc %d matchset %v, healthy %v", label, d.Doc, d.Set, w.Set)
				}
			}
			found = true
			break
		}
		if !found {
			t.Fatalf("%s: degraded doc %d score %v not in healthy ranking", label, d.Doc, d.Score)
		}
		if i > 0 {
			prev := got[i-1]
			if d.Score > prev.Score || (d.Score == prev.Score && d.Doc < prev.Doc) {
				t.Fatalf("%s: degraded merge out of rank order at %d: %+v", label, i, got)
			}
		}
	}
}
