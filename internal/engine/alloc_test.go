package engine

import (
	"context"
	"testing"

	"bestjoin/internal/index"
	"bestjoin/internal/scorefn"
)

// overlapConcepts is testConcepts with one word shared between each
// pair of neighbouring concepts, the way lexicon expansions overlap:
// the shared word's token answers two query terms, so the
// duplicate-unaware optimum of many documents is not a valid matchset.
func overlapConcepts() []index.Concept {
	return []index.Concept{
		{"lenovo": 1, "dell": 0.9, "hewlett": 0.8, "nba": 0.7},
		{"nba": 1, "olympics": 0.9, "basketball": 0.7, "deal": 0.8},
		{"partnership": 1, "alliance": 0.8, "deal": 0.6, "dell": 0.7},
	}
}

// TestEngineCachedAllocCeiling is the query-path regression gate
// scripts/check.sh runs: a repeated query (its stems decoded by the
// first) must stay under a fixed allocation budget, so any change that
// sneaks per-document or per-posting allocation into the path fails
// fast. The budget (150) has headroom over the measured value,
// dominated by per-query goroutine and channel setup, but far below
// the thousands a per-document allocation would add. The second arm holds the
// kernel proxserve actually serves — the valid-matchset wrapper, on
// concepts that overlap so that at least a fifth of the joins go
// through the duplicate-avoidance search — to the same ceiling.
func TestEngineCachedAllocCeiling(t *testing.T) {
	compact := buildCompact(t, testCorpus(400, 12))
	spec := KernelSpec{Family: "win", Alpha: 0.07, Valid: true}
	joins, dups := 0, 0
	for _, r := range oracle(compact, overlapConcepts(), 3, WINJoiner(scorefn.ExpWIN{Alpha: spec.Alpha}), compact.Docs()) {
		joins++
		if !r.Set.Valid() {
			dups++
		}
	}
	if 5*dups < joins {
		t.Fatalf("only %d of %d joins have a duplicated token: the valid arm would not gate the search", dups, joins)
	}
	for name, q := range map[string]Query{
		"unwrapped": {Concepts: testConcepts(), Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.07}), K: 10},
		"valid":     {Concepts: overlapConcepts(), Spec: spec, K: 10},
	} {
		e := New(compact, Config{Workers: 2})
		if _, err := e.Search(context.Background(), q); err != nil {
			t.Fatal(err) // decode the stems
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Search(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 150 {
			t.Errorf("%s: cached query costs %.0f allocs/op, ceiling is 150", name, allocs)
		}
		t.Logf("%s: %.0f allocs/op", name, allocs)
	}
}
