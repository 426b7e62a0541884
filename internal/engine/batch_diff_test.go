package engine

// Differential harness for the two forms of the one block codec: an
// unflagged table holds every value in group-varint lanes, a flagged
// one carries each value too wide for a lane as a uvarint escape. The
// form must be invisible: a random corpus served from unflagged tables
// answers exactly as the same corpus with its ids spaced wideStride
// apart — every gap, span and document delta escaped — served from
// flagged tables at the same and at the default block size, once the
// ids are mapped back: document ids, scores bit for bit, matchsets, tie-break order
// and the Partial flag, across scoring families, workers and pruning.
// scripts/check.sh runs it under -race.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bestjoin/internal/index"
)

// wideStride spaces document ids 2^32+1 apart, so every value a table
// derives from two of them is at least 2^32: its table is flagged.
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

// unspaced maps a result over ids spaced stride apart back to dense ids.
func unspaced(t *testing.T, res *Result, stride int) *Result {
	t.Helper()
	out := *res
	out.Docs = make([]DocResult, len(res.Docs))
	for i, dr := range res.Docs {
		if dr.Doc%stride != 0 {
			t.Fatalf("doc %d is not a multiple of the stride", dr.Doc)
		}
		dr.Doc /= stride
		out.Docs[i] = dr
	}
	return &out
}

func TestDifferentialBatchVsVarint(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(5000 + int64(trial)))
		corpus := diffCorpus(rng)
		concepts := diffConcepts(rng)
		// Three physically separate indexes from the same corpus: dense
		// ids with unflagged tables, spaced ids with flagged tables at
		// the same block size (odd trials use a tiny size so queries
		// cross many block boundaries), and spaced ids with flagged
		// tables at the default size.
		batchIdx := buildCompact(t, corpus)
		varintIdx := buildCompactSpaced(t, corpus, wideStride)
		blockSize := 16
		if trial%2 == 1 {
			blockSize = 3
		}
		index.SetBlockSizeForTest(batchIdx, blockSize)
		index.SetBlockSizeForTest(varintIdx, blockSize)
		bareIdx := buildCompactSpaced(t, corpus, wideStride)
		k := 1 + rng.Intn(6)
		for _, workers := range []int{1, 4} {
			for _, noprune := range []bool{false, true} {
				for _, fam := range diffFamilies() {
					cfg := Config{Workers: workers, DisablePruning: noprune}
					varint := New(varintIdx, cfg)
					q := Query{Concepts: concepts, Join: fam.factory, K: k}
					search := func(e *Engine) *Result {
						res, err := e.Search(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					rb, rv, ro := search(New(batchIdx, cfg)), search(varint), search(New(bareIdx, cfg))
					label := fmt.Sprintf("trial %d %s workers=%d k=%d bs=%d noprune=%v",
						trial, fam.name, workers, k, blockSize, noprune)
					assertIdentical(t, label+" batch-vs-varint", rb, unspaced(t, rv, wideStride))
					assertIdentical(t, label+" batch-vs-default-size", rb, unspaced(t, ro, wideStride))
					if rb.Degraded || rv.Degraded || ro.Degraded {
						t.Fatalf("%s: degraded on a healthy index", label)
					}
					// The flagged engine must actually have decoded
					// blocks, not fallen through to another path.
					st := varint.Stats()
					if rv.Evaluated > 0 && st.BlockDecodes == 0 {
						t.Fatalf("%s: evaluated %d docs with zero block decodes", label, rv.Evaluated)
					}
					// Repeat the query: the cached path (skip tables and
					// decoded blocks warm in the LRUs) must stay identical.
					assertIdentical(t, label+" cached", rb, unspaced(t, search(varint), wideStride))
				}
			}
		}
	}
}

// TestBatchBlocksDegradeNotCrash is TestCorruptBlocksDegradeNotCrash
// over unflagged tables: dense ids, every value in a lane.
func TestBatchBlocksDegradeNotCrash(t *testing.T) {
	assertCorruptBlocksDegrade(t, 1)
}
