package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// TestTallyAddCoversEveryField: Add is the one place the counter set is
// listed, so a counter added to Tally but missed there must fail here.
// Field i holds i+1; added twice, it must read 2(i+1).
func TestTallyAddCoversEveryField(t *testing.T) {
	var one Tally
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum Tally
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got, want := s.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Errorf("Tally.%s reads %d after adding %d twice, want %d: Add misses it", s.Type().Field(i).Name, got, i+1, want)
		}
	}
}

// TestStatsJSONKeys pins the key names of the Stats JSON that /stats,
// /shardstats and expvar publish: the Tally's fields are promoted, so
// every key reads as it did when Stats listed them itself.
func TestStatsJSONKeys(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st.Tally).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(1) // set the omitempty ones too
	}
	st.Shards = []Stats{{}}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"BlockDecodes", "BlocksSkipped", "BreakerOpen", "CoalescedDecodes",
		"DeadlineHits", "DecodeFailures", "DedupCapped", "DegradedResults",
		"DocsEvaluated", "FloorCutJoins", "Hedged", "InFlight", "IndexReloads",
		"JoinPanics", "JoinsRun", "KernelInvocations", "ListHits", "ListMisses",
		"MergedCandidates", "PairBoundPrunes", "PairServed",
		"PartialResults", "PivotSkips", "PrunedDocs", "PrunedFraction",
		"Queries", "QueryLatency", "QuorumDegraded", "Retried",
		"ShardFailures", "ShardQueries", "ShardTimeouts", "Shards", "Shed",
		"UnionCandidates", "UnionUnpruned", "WindowCutJoins",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Stats JSON keys\n%v\nwant\n%v", got, want)
	}
}

// cancelFactory wraps a kernel factory so that every join first cancels
// the query's context: the walk stops at its next poll and the workers
// drain what they hold unevaluated.
func cancelFactory(inner KernelFactory, cancel context.CancelFunc) KernelFactory {
	return func() join.Kernel {
		k := inner()
		return join.KernelFunc(func(ls match.Lists) (match.Set, float64, bool) {
			cancel()
			k.Reset(nil, ls)
			return k.Join()
		})
	}
}

// TestTallyQueryGranular runs a seeded stream mixing AND, OR, 2-of-3,
// cancelled, deadline-expired, shed and panicking-kernel queries, one
// at a time, while a reader takes Stats snapshots concurrently. A query
// is counted when it finishes, all at once, so every snapshot has
// Queries == QueryLatency.Count, and at the end the queries' summed
// Result counts are exactly the engine's walk counters, and JoinPanics
// is exactly the panics injected.
func TestTallyQueryGranular(t *testing.T) {
	compact := buildCompact(t, testCorpus(300, 17))
	concepts := testConcepts()
	spec := KernelSpec{Family: "win", Alpha: 0.07, Valid: true}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(compact, Config{Workers: workers, MaxInFlight: 1, Overload: OverloadShed})

			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			var snapshots atomic.Int64
			go func() {
				defer reader.Done()
				last := uint64(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := e.Stats()
					if st.Queries != st.QueryLatency.Count || st.Queries < last {
						t.Errorf("snapshot: Queries %d, QueryLatency.Count %d, previous Queries %d", st.Queries, st.QueryLatency.Count, last)
						return
					}
					last = st.Queries
					snapshots.Add(1)
				}
			}()

			rng := rand.New(rand.NewSource(int64(40 + workers)))
			med := MEDJoiner(scorefn.ExpMED{Alpha: 0.1})
			var injected, calls atomic.Int64
			flaky := flakyFactory(med, &calls, func(n int64) bool {
				if n%7 == 3 {
					injected.Add(1)
					return true
				}
				return false
			})
			var sum struct{ candidates, evaluated, pruned uint64 }
			kinds := map[string]int{}
			admitted, shed, partial, degraded, deadline := 0, 0, 0, 0, 0
			for i := 0; i < 120; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				q := Query{Concepts: concepts, Spec: spec, K: 1 + rng.Intn(8)}
				kind := []string{"and", "or", "2of3", "cancelled", "midcancel", "deadline", "shed", "panic"}[rng.Intn(8)]
				switch kind {
				case "or":
					q.Mode = ModeOR
				case "2of3":
					q.MinMatch = 2
				case "cancelled":
					cancel()
				case "midcancel":
					q.Spec, q.Join = KernelSpec{}, cancelFactory(med, cancel)
				case "deadline":
					cancel()
					ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				case "panic":
					q.Spec, q.Join, q.Mode = KernelSpec{}, flaky, []QueryMode{ModeAND, ModeOR}[rng.Intn(2)]
				}
				var release func()
				if kind == "shed" {
					var err error
					if release, err = e.admit.admit(ctx); err != nil {
						t.Fatal(err)
					}
				}
				res, err := e.Search(ctx, q)
				cancel()
				if release != nil {
					release()
				}
				if kind == "shed" {
					if !errors.Is(err, ErrOverloaded) {
						t.Fatalf("query %d at the cap: err %v, want ErrOverloaded", i, err)
					}
					shed++
					kinds[kind]++
					continue
				}
				if err != nil {
					t.Fatalf("query %d (%s): %v", i, kind, err)
				}
				assertResultInvariants(t, fmt.Sprintf("query %d (%s)", i, kind), res)
				kinds[kind]++
				admitted++
				sum.candidates += uint64(res.Candidates)
				sum.evaluated += uint64(res.Evaluated)
				sum.pruned += uint64(res.Pruned)
				if res.Partial {
					partial++
				}
				if res.Degraded {
					degraded++
				}
				if kind == "deadline" {
					deadline++
				}
			}
			close(stop)
			reader.Wait()

			st := e.Stats()
			type outcome struct {
				queries, shed, partial, degraded, deadline, panics uint64
				candidates, evaluated, pruned                      uint64
			}
			got := outcome{st.Queries, st.Shed, st.PartialResults, st.DegradedResults, st.DeadlineHits, st.JoinPanics,
				st.UnionCandidates, st.DocsEvaluated, st.PrunedDocs}
			want := outcome{uint64(admitted), uint64(shed), uint64(partial), uint64(degraded), uint64(deadline), uint64(injected.Load()),
				sum.candidates, sum.evaluated, sum.pruned}
			if got != want {
				t.Fatalf("Stats %+v, want %+v", got, want)
			}
			if st.QueryLatency.Count != st.Queries || st.InFlight != 0 {
				t.Fatalf("at rest: QueryLatency.Count %d, Queries %d, InFlight %d", st.QueryLatency.Count, st.Queries, st.InFlight)
			}
			if injected.Load() == 0 || partial == 0 || len(kinds) != 8 {
				t.Fatalf("stream too tame: %d panics, %d partial, kinds %v", injected.Load(), partial, kinds)
			}
			t.Logf("%d queries (%v), %d snapshots read", admitted+shed, kinds, snapshots.Load())
		})
	}
}
