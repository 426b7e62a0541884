//go:build faultinject

package engine

// Chaos differential harness: only compiled with -tags faultinject
// (`make chaos` runs it under -race). Deterministic faults — kernel
// panics, corrupt-decode panics, decode latency — are injected into
// live queries, and every outcome is held to the
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
		{"everything-at-once", faultinject.Config{
			Rates: map[faultinject.Site]float64{
				faultinject.KernelJoin:    0.2,
				faultinject.ConceptDecode: 0.2,
				faultinject.DecodeLatency: 0.5,
			},
			Latency: 100 * time.Microsecond,
		}},
	}
}

// TestChaosDifferential is the core of the harness: the full fault ×
// worker-count × K matrix (K 8, and a K covering every candidate, where
// no bar rises and nothing is pruned), three seeds and three queries
// per cell, each seed on a freshly built index (so its stems decode on
// first use, where the decode faults fire), each outcome checked
// against the fault-free baseline.
func TestChaosDifferential(t *testing.T) {
	c := buildCompact(t, testCorpus(120, 41))
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	const k = 8
	baseline := oracle(c, testConcepts(), 3, jn, k)
	fullRanking := oracle(c, testConcepts(), 3, jn, c.Docs())

	for _, fault := range chaosFaults() {
		for _, workers := range []int{1, 4} {
			for _, cover := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/cover=%v", fault.name, workers, cover)
				q, want := Query{Concepts: testConcepts(), Join: jn, K: k}, baseline
				if cover {
					q.K, want = c.Docs(), fullRanking
				}
				t.Run(label, func(t *testing.T) {
					e := New(c, Config{Workers: workers})
					for seed := int64(1); seed <= 3; seed++ {
						cfg := fault.cfg
						cfg.Seed = seed
						e.SwapIndex(buildCompact(t, testCorpus(120, 41)))
						faultinject.Activate(cfg)
						for round := 0; round < 3; round++ {
							res, err := e.Search(context.Background(), q)
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
								assertSameDocs(t, fmt.Sprintf("%s seed %d round %d", label, seed, round), res.Docs, want)
							}
						}
						faultinject.Deactivate()
					}

					// Injection off: the engine must be fully healthy, its
					// index unpoisoned by whatever just happened.
					res, err := e.Search(context.Background(), q)
					if err != nil || res.Degraded || res.Partial {
						t.Fatalf("engine unhealthy after chaos: %v %+v", err, res)
					}
					assertSameDocs(t, "post-chaos", res.Docs, want)
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
	// A stem whose decode fired keeps nothing, so a later round decodes
	// it again: decode faults fire until every stem is in, and the
	// kernel faults once the concepts resolve.
	for round := 0; round < 4; round++ {
		if _, err := e.Search(context.Background(),
			Query{Concepts: testConcepts(), Join: jn, K: 5}); err != nil {
			t.Fatal(err)
		}
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
// so it proves the recovery paths (kernel rebuild, cd.failed, racing
// first-use stem decodes) are data-race-free, not just crash-free.
func TestChaosConcurrentQueries(t *testing.T) {
	c := buildCompact(t, testCorpus(100, 47))
	jn := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
	e := New(c, Config{Workers: 4, MaxInFlight: 6})
	fullRanking := oracle(c, testConcepts(), 3, jn, c.Docs())
	faultinject.Activate(faultinject.Config{
		Seed: 11,
		Rates: map[faultinject.Site]float64{
			faultinject.KernelJoin:    0.2,
			faultinject.ConceptDecode: 0.1,
			faultinject.DecodeLatency: 0.5,
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
	baseline := oracle(c, concepts, 1, jn, k)

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
		fulls = append(fulls, oracle(c, sub, 1, jn, c.Docs()))
	}

	for _, fault := range chaosFaults() {
		for _, workers := range []int{1, 4} {
			for _, cover := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/cover=%v", fault.name, workers, cover)
				q, want := Query{Concepts: testConcepts(), Join: jn, K: k, Mode: ModeOR}, baseline
				if cover {
					q.K, want = c.Docs(), fulls[len(fulls)-1] // every concept
				}
				t.Run(label, func(t *testing.T) {
					e := New(c, Config{Workers: workers})
					for seed := int64(1); seed <= 3; seed++ {
						cfg := fault.cfg
						cfg.Seed = seed
						e.SwapIndex(buildCompact(t, testCorpus(120, 43)))
						faultinject.Activate(cfg)
						for round := 0; round < 3; round++ {
							res, err := e.Search(context.Background(), q)
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
								assertSameDocs(t, fmt.Sprintf("%s seed %d round %d", label, seed, round), res.Docs, want)
							}
						}
						faultinject.Deactivate()
					}

					// Injection off: healthy and bitwise back to baseline.
					res, err := e.Search(context.Background(), q)
					if err != nil || res.Degraded || res.Partial {
						t.Fatalf("engine unhealthy after chaos: %v %+v", err, res)
					}
					assertSameDocs(t, "post-chaos", res.Docs, want)
				})
			}
		}
	}
}
