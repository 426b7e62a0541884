//go:build faultinject

package engine

// Chaos differential harness: only compiled with -tags faultinject
// (`make chaos` runs it under -race). Deterministic faults — kernel
// panics, corrupt-decode panics, decode latency, cache-miss storms —
// are injected into live queries, and every outcome is held to the
// fault-tolerance contract:
//
//   - no query ever returns an error or crashes the process;
//   - a non-degraded, non-partial result is bitwise identical to the
//     fault-free baseline;
//   - a degraded result is a sound subset of the baseline's full
//     ranking — documents may be dropped, never mis-scored;
//   - the engine is fully healthy again once injection stops.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bestjoin/internal/faultinject"
	"bestjoin/internal/index"
	"bestjoin/internal/scorefn"
)

// chaosFaults enumerates the injected fault profiles of the matrix.
func chaosFaults() []struct {
	name string
	cfg  faultinject.Config
} {
	return []struct {
		name string
		cfg  faultinject.Config
	}{
		{"kernel-panic", faultinject.Config{
			Rates: map[faultinject.Site]float64{faultinject.KernelJoin: 0.3},
		}},
		{"decode-corrupt", faultinject.Config{
			Rates: map[faultinject.Site]float64{faultinject.ConceptDecode: 0.5},
		}},
		{"latency", faultinject.Config{
			Rates:   map[faultinject.Site]float64{faultinject.DecodeLatency: 1},
			Latency: 200 * time.Microsecond,
		}},
		{"cache-miss-storm", faultinject.Config{
			Rates: map[faultinject.Site]float64{
				faultinject.ListCacheMiss:    1,
				faultinject.ConceptCacheMiss: 1,
			},
		}},
		{"everything-at-once", faultinject.Config{
			Rates: map[faultinject.Site]float64{
				faultinject.KernelJoin:       0.2,
				faultinject.ConceptDecode:    0.2,
				faultinject.DecodeLatency:    0.5,
				faultinject.ListCacheMiss:    0.3,
				faultinject.ConceptCacheMiss: 0.3,
			},
			Latency: 100 * time.Microsecond,
		}},
	}
}

// TestChaosDifferential is the core of the harness: the full fault ×
// worker-count × pruning matrix, three seeds and three queries per
// cell (cold then cached paths), each outcome checked against the
// fault-free baseline.
func TestChaosDifferential(t *testing.T) {
	c := buildCompact(t, testCorpus(120, 41))
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	const k = 8
	baseline := bruteForce(c, testConcepts(), jn, k)
	fullRanking := bruteForce(c, testConcepts(), jn, c.Docs())

	for _, fault := range chaosFaults() {
		for _, workers := range []int{1, 4} {
			for _, noprune := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/noprune=%v", fault.name, workers, noprune)
				t.Run(label, func(t *testing.T) {
					e := New(c, Config{Workers: workers, DisablePruning: noprune})
					for seed := int64(1); seed <= 3; seed++ {
						cfg := fault.cfg
						cfg.Seed = seed
						faultinject.Activate(cfg)
						for round := 0; round < 3; round++ {
							res, err := e.Search(context.Background(),
								Query{Concepts: testConcepts(), Join: jn, K: k})
							if err != nil {
								t.Fatalf("seed %d round %d: injected faults must never error: %v", seed, round, err)
							}
							if res.Partial {
								t.Fatalf("seed %d round %d: no deadline set, yet Partial: %+v", seed, round, res)
							}
							assertResultInvariants(t, fmt.Sprintf("%s seed %d round %d", label, seed, round), res)
							if res.Degraded {
								assertSoundSubset(t, label, res.Docs, fullRanking)
								if res.Failed == 0 && res.Candidates > 0 {
									t.Fatalf("seed %d round %d: Degraded with zero Failed and %d candidates",
										seed, round, res.Candidates)
								}
							} else {
								if len(res.Docs) != len(baseline) {
									t.Fatalf("seed %d round %d: non-degraded result has %d docs, baseline %d",
										seed, round, len(res.Docs), len(baseline))
								}
								for i := range baseline {
									g, w := res.Docs[i], baseline[i]
									if g.Doc != w.Doc || g.Score != w.Score {
										t.Fatalf("seed %d round %d rank %d: got doc %d score %v, baseline doc %d score %v",
											seed, round, i, g.Doc, g.Score, w.Doc, w.Score)
									}
								}
							}
						}
						faultinject.Deactivate()
					}

					// Injection off: the engine must be fully healthy, its
					// caches unpoisoned by whatever just happened.
					res, err := e.Search(context.Background(),
						Query{Concepts: testConcepts(), Join: jn, K: k})
					if err != nil || res.Degraded || res.Partial {
						t.Fatalf("engine unhealthy after chaos: %v %+v", err, res)
					}
					if len(res.Docs) != len(baseline) {
						t.Fatalf("post-chaos result has %d docs, baseline %d", len(res.Docs), len(baseline))
					}
					for i := range baseline {
						if res.Docs[i].Doc != baseline[i].Doc || res.Docs[i].Score != baseline[i].Score {
							t.Fatalf("post-chaos rank %d: %+v, baseline %+v", i, res.Docs[i], baseline[i])
						}
					}
				})
			}
		}
	}
}

// TestChaosCountersMatchInjections ties the observability surface to
// the injection registry: every injected kernel panic shows up in
// Stats().JoinPanics, every injected decode panic in DecodeFailures.
func TestChaosCountersMatchInjections(t *testing.T) {
	c := buildCompact(t, testCorpus(100, 43))
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	e := New(c, Config{Workers: 2})
	faultinject.Activate(faultinject.Config{
		Seed: 7,
		Rates: map[faultinject.Site]float64{
			faultinject.KernelJoin:    0.4,
			faultinject.ConceptDecode: 0.3,
		},
	})
	for round := 0; round < 4; round++ {
		if _, err := e.Search(context.Background(),
			Query{Concepts: testConcepts(), Join: jn, K: 5}); err != nil {
			t.Fatal(err)
		}
		e.ResetCache() // force fresh decodes so ConceptDecode keeps firing
	}
	kernelFired := faultinject.Fired(faultinject.KernelJoin)
	decodeFired := faultinject.Fired(faultinject.ConceptDecode)
	faultinject.Deactivate()
	st := e.Stats()
	if kernelFired == 0 || decodeFired == 0 {
		t.Fatalf("injection did not fire: kernel %d, decode %d — rates or seed too timid", kernelFired, decodeFired)
	}
	if st.JoinPanics != kernelFired {
		t.Errorf("Stats().JoinPanics = %d, injected %d", st.JoinPanics, kernelFired)
	}
	if st.DecodeFailures != decodeFired {
		t.Errorf("Stats().DecodeFailures = %d, injected %d", st.DecodeFailures, decodeFired)
	}
	if st.DegradedResults == 0 {
		t.Error("no query counted as degraded despite recovered faults")
	}
}

// TestChaosConcurrentQueries runs the everything-at-once profile from
// many goroutines at once; under `make chaos` this executes with -race,
// so it proves the recovery paths (kernel rebuild, cd.failed, cache
// repopulation) are data-race-free, not just crash-free.
func TestChaosConcurrentQueries(t *testing.T) {
	c := buildCompact(t, testCorpus(100, 47))
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	e := New(c, Config{Workers: 4, MaxInFlight: 6})
	fullRanking := bruteForce(c, testConcepts(), jn, c.Docs())
	faultinject.Activate(faultinject.Config{
		Seed: 11,
		Rates: map[faultinject.Site]float64{
			faultinject.KernelJoin:       0.2,
			faultinject.ConceptDecode:    0.1,
			faultinject.DecodeLatency:    0.5,
			faultinject.ListCacheMiss:    0.3,
			faultinject.ConceptCacheMiss: 0.3,
		},
		Latency: 50 * time.Microsecond,
	})
	defer faultinject.Deactivate()

	var wg sync.WaitGroup
	errs := make(chan error, 8*6)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				res, err := e.Search(context.Background(),
					Query{Concepts: testConcepts(), Join: jn, K: 5})
				if err != nil {
					errs <- fmt.Errorf("round %d: %v", round, err)
					return
				}
				for _, d := range res.Docs {
					found := false
					for _, w := range fullRanking {
						if w.Doc == d.Doc && w.Score == d.Score {
							found = true
							break
						}
					}
					if !found {
						errs <- fmt.Errorf("round %d: doc %d score %v not in healthy ranking", round, d.Doc, d.Score)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChaosCoalescedDecodes points the chaos harness at the decode
// coalescing layer: block-served concepts, full-rate decode
// latency to hold flights open while waiters pile up, and a burst of
// identical concurrent queries. Every query must complete (the
// deferred flight completion means no leader outcome can strand a
// waiter), every returned document must carry a healthy score, and the
// flight map must drain.
func TestChaosCoalescedDecodes(t *testing.T) {
	c := buildCompact(t, testCorpus(100, 53))
	concepts := testConcepts()
	index.SetBlockSizeForTest(c, 8)
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	fullRanking := bruteForce(c, concepts, jn, c.Docs())
	e := New(c, Config{Workers: 4})
	faultinject.Activate(faultinject.Config{
		Seed: 13,
		Rates: map[faultinject.Site]float64{
			faultinject.DecodeLatency: 1,
			faultinject.ListCacheMiss: 1, // every fetch misses: flights form every round
		},
		Latency: 300 * time.Microsecond,
	})

	var wg sync.WaitGroup
	errs := make(chan error, 8*4)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				res, err := e.Search(context.Background(),
					Query{Concepts: concepts, Join: jn, K: 5})
				if err != nil {
					errs <- fmt.Errorf("round %d: %v", round, err)
					return
				}
				for _, d := range res.Docs {
					found := false
					for _, w := range fullRanking {
						if w.Doc == d.Doc && w.Score == d.Score {
							found = true
							break
						}
					}
					if !found {
						errs <- fmt.Errorf("round %d: doc %d score %v not in healthy ranking", round, d.Doc, d.Score)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	faultinject.Deactivate()
	for err := range errs {
		t.Error(err)
	}
	e.flights.mu.Lock()
	leaked := len(e.flights.m)
	e.flights.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flight entries leaked", leaked)
	}
	st := e.Stats()
	if st.DecodeWaits < st.CoalescedDecodes {
		t.Fatalf("CoalescedDecodes %d exceeds DecodeWaits %d", st.CoalescedDecodes, st.DecodeWaits)
	}
}

// TestChaosCoalescedLeaderFailure injects decode panics at full rate:
// every flight's leader fails, so every waiter must receive the shared
// failure — degraded results, no errors, no deadlock, no waiter left
// blocked — and the engine must be healthy again once injection stops.
func TestChaosCoalescedLeaderFailure(t *testing.T) {
	c := buildCompact(t, testCorpus(80, 59))
	concepts := testConcepts()
	index.SetBlockSizeForTest(c, 8)
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	e := New(c, Config{Workers: 4})
	baseline, err := e.Search(context.Background(),
		Query{Concepts: concepts, Join: jn, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.ResetCache()
	faultinject.Activate(faultinject.Config{
		Seed: 17,
		Rates: map[faultinject.Site]float64{
			faultinject.ConceptDecode: 1,
			faultinject.DecodeLatency: 1,
		},
		Latency: 200 * time.Microsecond,
	})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Search(context.Background(),
				Query{Concepts: concepts, Join: jn, K: 5})
			if err != nil {
				t.Errorf("failed flights must degrade, not error: %v", err)
				return
			}
			if !res.Degraded {
				t.Error("every decode failed yet the result is not degraded")
			}
		}()
	}
	wg.Wait()
	faultinject.Deactivate()
	e.flights.mu.Lock()
	leaked := len(e.flights.m)
	e.flights.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flight entries leaked", leaked)
	}
	// Injection off: fully healthy again, bitwise back to baseline.
	res, err := e.Search(context.Background(),
		Query{Concepts: concepts, Join: jn, K: 5})
	if err != nil || res.Degraded || res.Partial {
		t.Fatalf("engine unhealthy after chaos: %v %+v", err, res)
	}
	assertIdentical(t, "post-chaos", res, baseline)
}

// appearsInSomeSubset reports whether one returned document carries
// the exact healthy score and matchset it would have under at least
// one non-empty subset of the query concepts.
func appearsInSomeSubset(d DocResult, fulls [][]DocResult) bool {
subsets:
	for _, full := range fulls {
		for _, w := range full {
			if w.Doc != d.Doc {
				continue
			}
			if w.Score != d.Score || len(w.Set) != len(d.Set) {
				continue subsets
			}
			for j := range d.Set {
				if d.Set[j] != w.Set[j] {
					continue subsets
				}
			}
			return true
		}
	}
	return false
}

// TestChaosDifferentialUnion extends the chaos contract to the
// disjunctive path. Union degradation is subtler than conjunctive: a
// concept whose decode fails mid-walk is dropped from that point on,
// so documents emitted before the failure were scored over the full
// concept set and later ones over the survivors. No single subset
// ranking describes the whole result — the contract is per document:
// every returned (doc, score, matchset) must be the exact healthy
// union score of that document over SOME non-empty subset of the
// query concepts (the ones that actually contributed), scores must
// still be ranked, and a healthy result must be bitwise identical to
// the fault-free union baseline.
func TestChaosDifferentialUnion(t *testing.T) {
	c := buildCompact(t, testCorpus(120, 43))
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	const k = 8
	concepts := testConcepts()
	baseline := bruteForceUnion(c, concepts, jn, k, 1)

	// Healthy full union rankings for every non-empty concept subset —
	// the candidate references a degraded result may soundly shrink to.
	var fulls [][]DocResult
	for bits := 1; bits < 1<<len(concepts); bits++ {
		var sub []index.Concept
		for i := range concepts {
			if bits&(1<<i) != 0 {
				sub = append(sub, concepts[i])
			}
		}
		fulls = append(fulls, bruteForceUnion(c, sub, jn, c.Docs(), 1))
	}

	for _, fault := range chaosFaults() {
		for _, workers := range []int{1, 4} {
			for _, noprune := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/noprune=%v", fault.name, workers, noprune)
				t.Run(label, func(t *testing.T) {
					e := New(c, Config{Workers: workers, DisablePruning: noprune})
					for seed := int64(1); seed <= 3; seed++ {
						cfg := fault.cfg
						cfg.Seed = seed
						faultinject.Activate(cfg)
						for round := 0; round < 3; round++ {
							res, err := e.Search(context.Background(),
								Query{Concepts: testConcepts(), Join: jn, K: k, Mode: ModeOR})
							if err != nil {
								t.Fatalf("seed %d round %d: injected faults must never error: %v", seed, round, err)
							}
							if res.Partial {
								t.Fatalf("seed %d round %d: no deadline set, yet Partial: %+v", seed, round, res)
							}
							assertResultInvariants(t, fmt.Sprintf("%s seed %d round %d", label, seed, round), res)
							if res.Degraded {
								for i, d := range res.Docs {
									if !appearsInSomeSubset(d, fulls) {
										t.Fatalf("seed %d round %d: degraded doc %d score %v matches no concept subset's healthy scoring",
											seed, round, d.Doc, d.Score)
									}
									if i > 0 {
										prev := res.Docs[i-1]
										if d.Score > prev.Score || (d.Score == prev.Score && d.Doc < prev.Doc) {
											t.Fatalf("seed %d round %d: degraded result out of rank order at %d: %+v", seed, round, i, res.Docs)
										}
									}
								}
							} else {
								assertSameDocs(t, fmt.Sprintf("%s seed %d round %d", label, seed, round), res.Docs, baseline)
							}
						}
						faultinject.Deactivate()
					}

					// Injection off: healthy and bitwise back to baseline.
					res, err := e.Search(context.Background(),
						Query{Concepts: testConcepts(), Join: jn, K: k, Mode: ModeOR})
					if err != nil || res.Degraded || res.Partial {
						t.Fatalf("engine unhealthy after chaos: %v %+v", err, res)
					}
					assertSameDocs(t, "post-chaos", res.Docs, baseline)
				})
			}
		}
	}
}

// TestChaosPairPath holds the auxiliary pair tier to the same
// contract: with the pair list corrupted — at the list level
// (ConceptPairs panics) and at the payload level (the skip table
// reads clean but every block decode fails mid-serve) — and kernel
// faults injected on the fallback path, queries must never error,
// non-degraded answers must stay bitwise identical to the
// pair-disabled fault-free baseline, and the tier must account the
// corruption as decode failures rather than ever serving off it.
func TestChaosPairPath(t *testing.T) {
	spec := KernelSpec{Family: "win", Alpha: 0.1, Valid: true}
	concepts := testConcepts()
	q := Query{Concepts: concepts[:2], Spec: spec, K: 8}

	build := func() *index.Compact {
		c := buildCompact(t, testCorpus(120, 47))
		if n, err := BuildPairIndex(c, concepts, spec, 0); err != nil || n == 0 {
			t.Fatalf("BuildPairIndex: n=%d err=%v", n, err)
		}
		return c
	}

	healthy := build()
	base := New(healthy, Config{DisablePairIndex: true})
	want, err := base.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(healthy, Config{DisablePairIndex: true, DisablePruning: true}).
		Search(context.Background(), Query{Concepts: concepts[:2], Spec: spec, K: healthy.Docs()})
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name string
		f    func(*index.Compact)
	}{
		{"list", func(c *index.Compact) {
			index.CorruptConceptPairsForTest(c, concepts[0], concepts[1], spec.Fingerprint())
		}},
		{"payload", func(c *index.Compact) {
			index.CorruptConceptPairPayloadForTest(c, concepts[0], concepts[1], spec.Fingerprint())
		}},
	}
	for _, corrupt := range corruptions {
		t.Run(corrupt.name, func(t *testing.T) {
			c := build()
			corrupt.f(c)
			e := New(c, Config{Workers: 2})
			faultinject.Activate(faultinject.Config{
				Rates: map[faultinject.Site]float64{
					faultinject.KernelJoin:    0.2,
					faultinject.ConceptDecode: 0.2,
				},
				Seed: 1,
			})
			for round := 0; round < 6; round++ {
				res, err := e.Search(context.Background(), q)
				if err != nil {
					t.Fatalf("round %d: corrupt pair list must never error: %v", round, err)
				}
				assertResultInvariants(t, fmt.Sprintf("%s round %d", corrupt.name, round), res)
				if res.Degraded {
					assertSoundSubset(t, corrupt.name, res.Docs, full.Docs)
				} else {
					assertSameDocs(t, fmt.Sprintf("%s round %d", corrupt.name, round), res.Docs, want.Docs)
				}
			}
			faultinject.Deactivate()

			// Injection off (the corruption stays): the kernel fallback
			// must serve the exact baseline, and the tier must have
			// recorded the corruption without ever serving off it.
			res, err := e.Search(context.Background(), q)
			if err != nil || res.Degraded || res.Partial {
				t.Fatalf("engine unhealthy after chaos: %v %+v", err, res)
			}
			assertSameDocs(t, "post-chaos", res.Docs, want.Docs)
			st := e.Stats()
			if st.DecodeFailures == 0 {
				t.Fatal("corrupt pair list never recorded a decode failure")
			}
			if st.PairServed != 0 {
				t.Fatalf("corrupt pair list was served %d times", st.PairServed)
			}
		})
	}
}
