package engine

// Differential harness for the block-max skip layer: block-served
// queries are supposed to be invisible — the only observable
// difference between an engine whose concepts have block-partitioned
// postings and one decoding flat postings is how much work the cold
// path does. This property test builds random corpora and random
// queries and asserts the block engine's output — document ids,
// scores (bit for bit), matchsets, tie-break order, and the Partial
// flag — is identical to the flat engine's across all scoring
// families, with and without the duplicate-avoidance wrapper, with
// one worker and with several. scripts/check.sh runs it under -race,
// so the worker-side lazy block decode, the shared directory memo,
// and the fetched bitsets are exercised concurrently too.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bestjoin/internal/index"
)

func TestDifferentialBlocksVsFlat(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(4000 + int64(trial)))
		corpus := diffCorpus(rng)
		concepts := diffConcepts(rng)
		// Two physically separate indexes from the same corpus: one
		// with block-partitioned postings registered for every concept
		// (odd trials use a tiny block size so queries cross many
		// block boundaries; even trials keep a mid size so several
		// documents share a block), one serving the flat decode path.
		// Half the flat trials also register doc-max metadata, so
		// block bounds are checked against both flat candidate paths.
		blockIdx := buildCompact(t, corpus)
		blockSize := 16
		if trial%2 == 1 {
			blockSize = 3
		}
		for _, c := range concepts {
			blockIdx.AddConceptBlocksSized(c, blockSize)
		}
		flatIdx := buildCompact(t, corpus)
		if trial%4 >= 2 {
			for _, c := range concepts {
				flatIdx.AddConceptMeta(c)
			}
		}
		k := 1 + rng.Intn(6)
		for _, workers := range []int{1, 4} {
			for _, fam := range diffFamilies() {
				blocked := New(blockIdx, Config{Workers: workers})
				flat := New(flatIdx, Config{Workers: workers})
				q := Query{Concepts: concepts, Join: fam.factory, K: k}
				rb, err := blocked.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				rf, err := flat.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("trial %d %s workers=%d k=%d bs=%d",
					trial, fam.name, workers, k, blockSize)
				assertIdentical(t, label, rb, rf)
				if rb.Degraded || rf.Degraded {
					t.Fatalf("%s: degraded on a healthy index", label)
				}
				// The block engine must actually have taken the block
				// path: candidates exist in most trials, and any decode
				// at all must be counted.
				st := blocked.Stats()
				if rb.Evaluated > 0 && st.BlockDecodes == 0 {
					t.Fatalf("%s: evaluated %d docs with zero block decodes", label, rb.Evaluated)
				}
				// Repeat the query: the cached path (skip tables and
				// decoded blocks warm in the LRUs) must stay identical.
				rb2, err := blocked.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, label+" cached", rb2, rf)
			}
		}
	}
}

// TestBlocksPruneInRankOrder is the flat-path equality test at block
// granularity. Every document scores identically and every block's
// max-score bound ties the top-k floor, so what decides a block is
// document ids alone: a block holding a document that still wins its
// tie against the k-th kept entry must be decoded, and a block whose
// documents have all lost it already must not be. One worker takes the
// 12 candidates in id order, so after documents 0–3 fill the heap the
// four blocks behind them go unfetched, exactly.
func TestBlocksPruneInRankOrder(t *testing.T) {
	docs := make([]string, 12)
	for i := range docs {
		docs[i] = "amber basalt"
	}
	compact := buildCompact(t, docs)
	concept := []index.Concept{{"amber": 1, "basalt": 1}}
	compact.AddConceptBlocksSized(concept[0], 2)

	e := New(compact, Config{Workers: 1})
	q := Query{Concepts: concept, Join: diffFamilies()[0].factory, K: 4}
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(compact, Config{Workers: 1, DisablePruning: true}).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "all ties", res.Docs, want.Docs)
	if len(res.Docs) != 4 {
		t.Fatalf("got %d docs, want 4", len(res.Docs))
	}
	for i, dr := range res.Docs {
		if dr.Doc != i {
			t.Fatalf("rank %d is doc %d, want %d (tie-break by id broken)", i, dr.Doc, i)
		}
	}
	if st := e.Stats(); st.BlocksSkipped != 4 || res.Pruned != 8 || res.Evaluated != 4 {
		t.Fatalf("%d blocks skipped, %d documents pruned, %d evaluated; want the 4 blocks and 8 documents behind doc 3 skipped and 4 evaluated",
			st.BlocksSkipped, res.Pruned, res.Evaluated)
	}
}

// TestCorruptBlocksDegradeNotCrash pins the block layer's failure
// model, mirroring the flat corrupt-decode test: corruption of a
// concept's block bytes — whether in the skip table (the lookup
// panics) or in a lazily-decoded payload (directory and match-area
// decodes error) — must degrade the query to a sound subset, never
// crash the process, never return an error, and count in
// Stats().DecodeFailures.
func TestCorruptBlocksDegradeNotCrash(t *testing.T) {
	corpus := make([]string, 30)
	for i := range corpus {
		corpus[i] = "amber basalt"
	}
	concept := index.Concept{"amber": 1, "basalt": 0.9}
	q := Query{Concepts: []index.Concept{concept}, Join: diffFamilies()[0].factory, K: 3}

	t.Run("skip-table", func(t *testing.T) {
		compact := buildCompact(t, corpus)
		compact.AddConceptBlocksSized(concept, 4)
		index.CorruptConceptBlocksForTest(compact, concept)
		e := New(compact, Config{Workers: 2})
		res, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("corrupt block table must degrade, not error: %v", err)
		}
		if !res.Degraded || len(res.Docs) != 0 {
			t.Fatalf("degraded=%v docs=%d, want degraded and empty", res.Degraded, len(res.Docs))
		}
		if e.Stats().DecodeFailures == 0 {
			t.Fatal("corrupt block table not counted in DecodeFailures")
		}
	})
	t.Run("payload", func(t *testing.T) {
		compact := buildCompact(t, corpus)
		compact.AddConceptBlocksSized(concept, 4)
		index.CorruptConceptBlockPayloadForTest(compact, concept)
		e := New(compact, Config{Workers: 2})
		res, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("corrupt block payload must degrade, not error: %v", err)
		}
		if !res.Degraded {
			t.Fatal("Degraded not set for corrupt block payloads")
		}
		if len(res.Docs) != 0 {
			t.Fatalf("undecodable payloads produced documents: %+v", res.Docs)
		}
		if e.Stats().DecodeFailures == 0 {
			t.Fatal("payload decode failures not counted in DecodeFailures")
		}
	})
}

// TestBlocksSkippedCounting pins the skip accounting: with one
// dominant document and k=1, trailing candidate blocks whose bounds
// fall strictly below the floor must be skipped without decode, and
// skipped + decoded must cover every candidate block.
func TestBlocksSkippedCounting(t *testing.T) {
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = "amber cedar"
	}
	docs[0] = "amber amber amber basalt" // only doc containing the heavy word
	compact := buildCompact(t, docs)
	concept := index.Concept{"basalt": 1, "amber": 0.1}
	compact.AddConceptBlocksSized(concept, 4)

	e := New(compact, Config{Workers: 1})
	q := Query{Concepts: []index.Concept{concept}, Join: diffFamilies()[0].factory, K: 1}
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if res.Pruned == 0 || st.BlocksSkipped == 0 {
		t.Fatalf("expected block-level skips: pruned=%d skipped=%d decodes=%d",
			res.Pruned, st.BlocksSkipped, st.BlockDecodes)
	}
	if res.Docs[0].Doc != 0 {
		t.Fatalf("top doc %d, want 0", res.Docs[0].Doc)
	}
}
