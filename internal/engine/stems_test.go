package engine

// Unit tests of the served representation, a concept as the query-time
// union of its member stems' plain arrays: pruning in rank order at
// exact per-document maxima, and corrupt postings degrading a query
// over dense ids and over ids spaced wideStride apart. TestDifferential
// (the root package) holds every query to the reference ranker over
// both.

import (
	"context"
	"strings"
	"testing"

	"bestjoin/internal/index"
	"bestjoin/internal/scorefn"
)

// wideStride spaces document ids 2^32+1 apart: every id past the first
// is beyond 32 bits.
const wideStride = 1<<32 + 1

// buildCompactSpaced is buildCompact with document d at id d·stride.
func buildCompactSpaced(t testing.TB, docs []string, stride int) *index.Compact {
	t.Helper()
	ix := index.New()
	for d, body := range docs {
		ix.AddText(d*stride, body)
	}
	return ix.Compact()
}

// TestBlocksPruneInRankOrder pins the rank-order tie-break of the
// dispatch screen. Every document scores identically and every bound
// ties the top-k floor, so what decides a document is its id alone: a
// document that still wins its tie against the k-th kept entry must be
// joined, and one that has lost it already must not be. One worker
// takes the 12 candidates in id order, so after documents 0–3 fill the
// heap the 8 behind them are pruned, exactly.
func TestBlocksPruneInRankOrder(t *testing.T) {
	docs := make([]string, 12)
	for i := range docs {
		docs[i] = "amber basalt"
	}
	compact := buildCompact(t, docs)
	concept := []index.Concept{{"amber": 1, "basalt": 1}}

	e := New(compact, Config{Workers: 1})
	q := Query{Concepts: concept, Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.07}), K: 4}
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
	if res.Pruned != 8 || res.Evaluated != 4 {
		t.Fatalf("%d documents pruned, %d evaluated; want the 8 documents behind doc 3 pruned and 4 evaluated",
			res.Pruned, res.Evaluated)
	}
}

// TestCorruptBlocksDegradeNotCrash pins the failure model over document
// ids spaced wideStride apart; its twin TestBatchBlocksDegradeNotCrash
// pins it over dense ids.
func TestCorruptBlocksDegradeNotCrash(t *testing.T) {
	assertCorruptBlocksDegrade(t, wideStride)
}

// TestBatchBlocksDegradeNotCrash is TestCorruptBlocksDegradeNotCrash
// over dense document ids.
func TestBatchBlocksDegradeNotCrash(t *testing.T) {
	assertCorruptBlocksDegrade(t, 1)
}

// assertCorruptBlocksDegrade serves a two-stem concept over a corpus
// with ids spaced stride apart, one of its stems' postings corrupt —
// the first in stem order ("skip-table") or the last ("payload"; the
// names are the block-table parts these cases once corrupted). Either
// way the concept cannot be merged: the query must degrade to a sound
// subset (here, empty), never crash the process, never return an
// error, count in Stats().DecodeFailures — and keep doing so, since a
// failed decode keeps nothing.
func assertCorruptBlocksDegrade(t *testing.T, stride int) {
	corpus := make([]string, 30)
	for i := range corpus {
		corpus[i] = "amber basalt"
	}
	concept := index.Concept{"amber": 1, "basalt": 0.9}
	q := Query{Concepts: []index.Concept{concept}, Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.07}), K: 3}
	for _, tc := range []struct{ name, word string }{{"skip-table", "amber"}, {"payload", "basalt"}} {
		t.Run(tc.name, func(t *testing.T) {
			compact := buildCompactSpaced(t, corpus, stride)
			index.CorruptPostingsForTest(compact, tc.word)
			e := New(compact, Config{Workers: 2})
			for round := uint64(1); round <= 2; round++ {
				res, err := e.Search(context.Background(), q)
				if err != nil {
					t.Fatalf("corrupt postings must degrade, not error: %v", err)
				}
				if !res.Degraded || len(res.Docs) != 0 {
					t.Fatalf("degraded=%v docs=%d, want degraded and empty", res.Degraded, len(res.Docs))
				}
				if got := e.Stats().DecodeFailures; got != round {
					t.Fatalf("round %d: DecodeFailures = %d", round, got)
				}
			}
		})
	}
}

// TestBlocksSkippedCounting pins pruning at exact per-document maxima:
// with one document holding the heavy word and k=1, every other
// candidate's bound uses the light word's weight alone and falls
// strictly below the floor, so all 39 are pruned before their lists are
// merged. (A block-level maximum pruned none of the documents sharing a
// block with the heavy one.) BlocksSkipped, kept for the load harness,
// stays 0.
func TestBlocksSkippedCounting(t *testing.T) {
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = strings.Repeat("cedar ", i%3) + "amber cedar"
	}
	docs[0] = "amber amber amber basalt" // only doc containing the heavy word
	compact := buildCompact(t, docs)
	concept := index.Concept{"basalt": 1, "amber": 0.1}

	e := New(compact, Config{Workers: 1})
	q := Query{Concepts: []index.Concept{concept}, Join: WINJoiner(scorefn.ExpWIN{Alpha: 0.07}), K: 1}
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if res.Pruned != 39 || res.Evaluated != 1 || st.BlocksSkipped != 0 || st.BlockDecodes != 0 {
		t.Fatalf("pruned=%d evaluated=%d skipped=%d decodes=%d, want 39, 1, 0, 0",
			res.Pruned, res.Evaluated, st.BlocksSkipped, st.BlockDecodes)
	}
	if res.Docs[0].Doc != 0 {
		t.Fatalf("top doc %d, want 0", res.Docs[0].Doc)
	}
}
