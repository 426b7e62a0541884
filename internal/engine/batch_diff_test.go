package engine

// Differential harness for the group-varint batched decode path: the
// batch codec is supposed to be invisible — an engine whose concepts
// are served from batched block buffers must return exactly what the
// varint-block engine and an engine building its tables on demand
// return. This property test
// builds random corpora and random queries and asserts all three
// engines' output — document ids, scores (bit for bit), matchsets,
// tie-break order, and the Partial flag — is identical across all
// scoring families, with and without the duplicate-avoidance wrapper,
// with one worker and with several, with pruning on and off.
// scripts/check.sh runs it under -race, so the batched per-block
// decode is exercised concurrently from the worker pool too.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bestjoin/internal/index"
)

func TestDifferentialBatchVsVarint(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(5000 + int64(trial)))
		corpus := diffCorpus(rng)
		concepts := diffConcepts(rng)
		// Three physically separate indexes from the same corpus: one
		// with batched block postings for every concept, one with varint
		// block postings at the same block size (odd trials use a tiny
		// size so queries cross many block boundaries), and one with
		// nothing registered, whose tables are built on demand.
		batchIdx := buildCompact(t, corpus)
		varintIdx := buildCompact(t, corpus)
		blockSize := 16
		if trial%2 == 1 {
			blockSize = 3
		}
		for _, c := range concepts {
			if !batchIdx.AddConceptBlocksBatchSized(c, blockSize) {
				t.Fatalf("trial %d: batch layout fell back to varint on an ordinary corpus", trial)
			}
			varintIdx.AddConceptBlocksSized(c, blockSize)
		}
		bareIdx := buildCompact(t, corpus)
		k := 1 + rng.Intn(6)
		for _, workers := range []int{1, 4} {
			for _, noprune := range []bool{false, true} {
				for _, fam := range diffFamilies() {
					cfg := Config{Workers: workers, DisablePruning: noprune}
					batched := New(batchIdx, cfg)
					varint := New(varintIdx, cfg)
					ondemand := New(bareIdx, cfg)
					q := Query{Concepts: concepts, Join: fam.factory, K: k}
					rb, err := batched.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					rv, err := varint.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					ro, err := ondemand.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("trial %d %s workers=%d k=%d bs=%d noprune=%v",
						trial, fam.name, workers, k, blockSize, noprune)
					assertIdentical(t, label+" batch-vs-varint", rb, rv)
					assertIdentical(t, label+" batch-vs-on-demand", rb, ro)
					if rb.Degraded || rv.Degraded || ro.Degraded {
						t.Fatalf("%s: degraded on a healthy index", label)
					}
					// The batch engine must actually have decoded batched
					// blocks, not fallen through to another path.
					st := batched.Stats()
					if rb.Evaluated > 0 && st.BlockDecodes == 0 {
						t.Fatalf("%s: evaluated %d docs with zero block decodes", label, rb.Evaluated)
					}
					// Repeat the query: the cached path (skip tables and
					// decoded blocks warm in the LRUs) must stay identical.
					rb2, err := batched.Search(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					assertIdentical(t, label+" cached", rb2, rv)
				}
			}
		}
	}
}

// TestBatchBlocksDegradeNotCrash extends the block failure model to
// the batched layout: corruption of a batched concept's bytes —
// whether in the skip table (the lookup panics) or in a lazily
// decoded payload — must degrade the query to a sound subset, never
// crash, never error, and count in Stats().DecodeFailures. The
// corruption hooks target whichever layout is registered, so this is
// the batch twin of TestCorruptBlocksDegradeNotCrash.
func TestBatchBlocksDegradeNotCrash(t *testing.T) {
	corpus := make([]string, 30)
	for i := range corpus {
		corpus[i] = "amber basalt"
	}
	concept := index.Concept{"amber": 1, "basalt": 0.9}
	q := Query{Concepts: []index.Concept{concept}, Join: diffFamilies()[0].factory, K: 3}

	t.Run("skip-table", func(t *testing.T) {
		compact := buildCompact(t, corpus)
		if !compact.AddConceptBlocksBatchSized(concept, 4) {
			t.Fatal("batch layout not registered")
		}
		index.CorruptConceptBlocksForTest(compact, concept)
		e := New(compact, Config{Workers: 2})
		res, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("corrupt batch table must degrade, not error: %v", err)
		}
		if !res.Degraded || len(res.Docs) != 0 {
			t.Fatalf("degraded=%v docs=%d, want degraded and empty", res.Degraded, len(res.Docs))
		}
		if e.Stats().DecodeFailures == 0 {
			t.Fatal("corrupt batch table not counted in DecodeFailures")
		}
	})
	t.Run("payload", func(t *testing.T) {
		compact := buildCompact(t, corpus)
		if !compact.AddConceptBlocksBatchSized(concept, 4) {
			t.Fatal("batch layout not registered")
		}
		index.CorruptConceptBlockPayloadForTest(compact, concept)
		e := New(compact, Config{Workers: 2})
		res, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("corrupt batch payload must degrade, not error: %v", err)
		}
		if !res.Degraded || len(res.Docs) != 0 {
			t.Fatalf("degraded=%v docs=%d, want degraded and empty", res.Degraded, len(res.Docs))
		}
		if e.Stats().DecodeFailures == 0 {
			t.Fatal("batch payload decode failures not counted in DecodeFailures")
		}
	})
}
