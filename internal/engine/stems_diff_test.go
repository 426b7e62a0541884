package engine

// Differential harness for the one served representation: a concept is
// the query-time union of its member stems' plain arrays, and the
// answer must be the paper's: bit for bit what joining every
// document's index.Compact.QueryLists and ranking by (score, id) gives.
// This property test builds random corpora and random queries and
// holds conjunctive, disjunctive and m-of-n queries to that reference
// across all scoring families, with and without the
// duplicate-avoidance wrapper, with one worker and with several,
// pruning on and off, on a first query (stems decoded on first use)
// and a repeat. TestDifferentialBatchVsVarint holds the same corpora
// with their ids spaced wideStride apart to the dense answers.
// scripts/check.sh runs both under -race, so racing first-use stem
// decodes and the workers' merges are exercised concurrently too.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bestjoin/internal/index"
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

// unspaced maps results over ids spaced stride apart back to dense ids.
func unspaced(t *testing.T, docs []DocResult, stride int) []DocResult {
	t.Helper()
	out := make([]DocResult, len(docs))
	for i, dr := range docs {
		if dr.Doc%stride != 0 {
			t.Fatalf("doc %d is not a multiple of the stride", dr.Doc)
		}
		dr.Doc /= stride
		out[i] = dr
	}
	return out
}

func TestDifferentialBlocksVsFlat(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(4000 + int64(trial)))
		corpus := diffCorpus(rng)
		concepts := diffConcepts(rng)
		k := 1 + rng.Intn(6)
		// The reference index and the served one, physically separate.
		ref := buildCompact(t, corpus)
		for _, fam := range diffFamilies() {
			for _, q := range diffModes(concepts) {
				q.Concepts, q.Join, q.K = concepts, fam.factory, k
				want := bruteForce(ref, concepts, fam.factory, k)
				if q.Mode == ModeOR {
					want = bruteForceUnion(ref, concepts, fam.factory, k, max(q.MinMatch, 1))
				}
				for _, workers := range []int{1, 4} {
					for _, noprune := range []bool{false, true} {
						label := fmt.Sprintf("trial %d %s or=%v m=%d workers=%d k=%d noprune=%v",
							trial, fam.name, q.Mode == ModeOR, q.MinMatch, workers, k, noprune)
						e := New(buildCompact(t, corpus), Config{Workers: workers, DisablePruning: noprune})
						for _, pass := range []string{"", " again"} {
							res, err := e.Search(context.Background(), q)
							if err != nil {
								t.Fatal(err)
							}
							assertResultInvariants(t, label+pass, res)
							assertSameDocs(t, label+pass, res.Docs, want)
							if res.Degraded || res.Partial {
								t.Fatalf("%s: degraded=%v partial=%v on a healthy index", label+pass, res.Degraded, res.Partial)
							}
						}
					}
				}
			}
		}
	}
}

// diffModes is AND, OR and — when the query is wide enough — 2-of-n.
func diffModes(concepts []index.Concept) []Query {
	modes := []Query{{}, {Mode: ModeOR}}
	if len(concepts) > 2 {
		modes = append(modes, Query{Mode: ModeOR, MinMatch: 2})
	}
	return modes
}

// TestDifferentialBatchVsVarint holds a corpus served with its
// document ids spaced wideStride apart — every id past the first
// beyond 32 bits, every posting's document delta too — to the same
// corpus served over dense ids: once the ids are mapped back, the two
// answers are identical field by field (documents, scores bit for bit,
// matchsets, tie-break order, candidate counts and the Partial flag),
// on a first query and a repeat, across scoring families, workers and
// pruning; OR and 2-of-n queries rank identically. (The name is that of the two block-table
// forms, lane-packed and escaped, that dense and spaced ids once
// produced; the stem arrays hold both in plain ints.)
func TestDifferentialBatchVsVarint(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(5000 + int64(trial)))
		corpus := diffCorpus(rng)
		concepts := diffConcepts(rng)
		k := 1 + rng.Intn(6)
		for _, fam := range diffFamilies() {
			for _, q := range diffModes(concepts) {
				q.Concepts, q.Join, q.K = concepts, fam.factory, k
				for _, workers := range []int{1, 4} {
					for _, noprune := range []bool{false, true} {
						label := fmt.Sprintf("trial %d %s or=%v m=%d workers=%d k=%d noprune=%v",
							trial, fam.name, q.Mode == ModeOR, q.MinMatch, workers, k, noprune)
						cfg := Config{Workers: workers, DisablePruning: noprune}
						dense := New(buildCompact(t, corpus), cfg)
						spaced := New(buildCompactSpaced(t, corpus, wideStride), cfg)
						for _, pass := range []string{"", " again"} {
							rd, err := dense.Search(context.Background(), q)
							if err != nil {
								t.Fatal(err)
							}
							rs, err := spaced.Search(context.Background(), q)
							if err != nil {
								t.Fatal(err)
							}
							back := *rs
							back.Docs = unspaced(t, rs.Docs, wideStride)
							if q.Mode == ModeOR {
								// A union walk's candidate count depends on
								// when its workers raise the floor.
								assertResultInvariants(t, label+pass, rs)
								assertSameDocs(t, label+pass+" dense-vs-spaced", back.Docs, rd.Docs)
							} else {
								assertIdentical(t, label+pass+" dense-vs-spaced", rd, &back)
							}
							if rd.Degraded || rs.Degraded {
								t.Fatalf("%s: degraded on a healthy index", label+pass)
							}
						}
					}
				}
			}
		}
	}
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
	q := Query{Concepts: []index.Concept{concept}, Join: diffFamilies()[0].factory, K: 3}
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
	q := Query{Concepts: []index.Concept{concept}, Join: diffFamilies()[0].factory, K: 1}
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
