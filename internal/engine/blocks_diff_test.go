package engine

// Differential harness for the one served representation: at whatever
// block size a concept's table is built from the postings, the answer
// must be the paper's: bit for bit what joining every document's
// index.Compact.QueryLists and ranking by (score, id) gives. This
// property test builds random corpora and random queries and holds
// conjunctive, disjunctive and m-of-n queries to that reference across
// all scoring families, with and without the duplicate-avoidance
// wrapper, with one worker and with several, pruning on and off, cold
// and on warm caches. scripts/check.sh runs it under -race, so the
// worker-side lazy block decode, the shared directory memo, and the
// fetched bitsets are exercised concurrently too.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"bestjoin/internal/index"
)

// diffLayout is the layout axis of the differential suites: the block
// size a test index builds its concept tables at.
type diffLayout struct {
	name string
	size int // documents per block; 0 means index.BlockSize
}

// diffLayouts enumerates the axis: tiny blocks (walks cross many block
// boundaries), mid-size blocks (several documents share one, block
// jumps have room), and the default size.
func diffLayouts() []diffLayout {
	return []diffLayout{{"bs=3", 3}, {"bs=16", 16}, {"bs=default", 0}}
}

// apply builds c's tables at the layout's block size.
func (l diffLayout) apply(c *index.Compact) { index.SetBlockSizeForTest(c, l.size) }

// plantTable builds concept's table on e's index, lets corrupt damage
// it, and caches it for the current epoch as the engine does a table
// it built: the next query reads the damaged table.
func plantTable(e *Engine, concept index.Concept, corrupt func(*index.BlockTable)) {
	snap := e.snap.Load()
	bt, _ := snap.idx.ConceptBlocks(concept)
	corrupt(bt)
	key := conceptKey{epoch: snap.epoch, fp: index.ConceptKey(concept)}
	e.concepts.Put(key, &blockSet{bt: bt, dirs: make([]atomic.Pointer[[]int], bt.NumBlocks())})
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
		// One physically separate index per layout, and a bare one for
		// the reference.
		ref := buildCompact(t, corpus)
		layouts := diffLayouts()
		idxs := make([]*index.Compact, len(layouts))
		for i, layout := range layouts {
			idxs[i] = buildCompact(t, corpus)
			layout.apply(idxs[i])
		}
		// AND, OR, and — when the query is wide enough — 2-of-n.
		modes := []Query{{}, {Mode: ModeOR}}
		if len(concepts) > 2 {
			modes = append(modes, Query{Mode: ModeOR, MinMatch: 2})
		}
		for _, fam := range diffFamilies() {
			for _, q := range modes {
				q.Concepts, q.Join, q.K = concepts, fam.factory, k
				want := bruteForce(ref, concepts, fam.factory, k)
				if q.Mode == ModeOR {
					want = bruteForceUnion(ref, concepts, fam.factory, k, max(q.MinMatch, 1))
				}
				for i, layout := range layouts {
					for _, workers := range []int{1, 4} {
						for _, noprune := range []bool{false, true} {
							label := fmt.Sprintf("trial %d %s %s or=%v m=%d workers=%d k=%d noprune=%v",
								trial, layout.name, fam.name, q.Mode == ModeOR, q.MinMatch, workers, k, noprune)
							e := New(idxs[i], Config{Workers: workers, DisablePruning: noprune})
							// Cold, then again on warm caches (skip tables
							// and decoded blocks in the LRUs).
							for _, pass := range []string{"", " cached"} {
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
							if st := e.Stats(); st.DocsEvaluated > 0 && st.BlockDecodes == 0 {
								t.Fatalf("%s: evaluated %d docs with zero block decodes", label, st.DocsEvaluated)
							}
						}
					}
				}
			}
		}
	}
}

// TestBlocksPruneInRankOrder pins the rank-order tie-break at block
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
	index.SetBlockSizeForTest(compact, 2)

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
// model for flagged tables (document ids spaced wideStride
// apart, so the payload corrupted below carries escape trailers); its
// twin TestBatchBlocksDegradeNotCrash pins it for unflagged ones.
func TestCorruptBlocksDegradeNotCrash(t *testing.T) {
	assertCorruptBlocksDegrade(t, wideStride)
}

// assertCorruptBlocksDegrade serves a table over a corpus with ids
// spaced stride apart and corrupts it: whether it cannot be built (its
// postings are corrupt, so the build panics) or it is built and a
// lazily-decoded payload is damaged (directory and match-area decodes
// error), the query must degrade to a sound subset,
// never crash the process, never return an error, and count in
// Stats().DecodeFailures.
func assertCorruptBlocksDegrade(t *testing.T, stride int) {
	corpus := make([]string, 30)
	for i := range corpus {
		corpus[i] = "amber basalt"
	}
	concept := index.Concept{"amber": 1, "basalt": 0.9}
	q := Query{Concepts: []index.Concept{concept}, Join: diffFamilies()[0].factory, K: 3}

	t.Run("skip-table", func(t *testing.T) {
		compact := buildCompactSpaced(t, corpus, stride)
		index.SetBlockSizeForTest(compact, 4)
		index.CorruptPostingsForTest(compact, "amber")
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
		compact := buildCompactSpaced(t, corpus, stride)
		index.SetBlockSizeForTest(compact, 4)
		e := New(compact, Config{Workers: 2})
		plantTable(e, concept, index.CorruptConceptBlockPayloadForTest)
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

// TestCorruptDocumentDropsOnlyItself corrupts one document of a
// block: the block still indexes, so only that document is dropped —
// every other document of the block, and of the index, is answered
// exactly — the result is Degraded, and the failure counts once in
// Stats().DecodeFailures.
func TestCorruptDocumentDropsOnlyItself(t *testing.T) {
	corpus := make([]string, 24)
	for i := range corpus {
		corpus[i] = strings.Repeat("cedar ", i%5) + "amber basalt"
	}
	concept := index.Concept{"amber": 1, "basalt": 0.9}
	q := Query{Concepts: []index.Concept{concept}, Join: diffFamilies()[0].factory, K: len(corpus)}
	cfg := Config{Workers: 1, DisablePruning: true}
	compact := buildCompact(t, corpus)
	index.SetBlockSizeForTest(compact, 8)
	want, err := New(compact, cfg).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	e := New(compact, cfg)
	plantTable(e, concept, index.CorruptConceptBlockLastDocForTest)
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("corrupt document must degrade, not error: %v", err)
	}
	if !res.Degraded || res.Failed != 1 {
		t.Fatalf("degraded=%v failed=%d, want degraded with one failure", res.Degraded, res.Failed)
	}
	var rest []DocResult
	for _, d := range want.Docs {
		if d.Doc != len(corpus)-1 {
			rest = append(rest, d)
		}
	}
	assertSameDocs(t, "corrupt document", res.Docs, rest)
	if st := e.Stats(); st.DecodeFailures != 1 || st.BlockDecodes != 3 {
		t.Fatalf("DecodeFailures = %d, BlockDecodes = %d, want 1 and 3", st.DecodeFailures, st.BlockDecodes)
	}
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
	index.SetBlockSizeForTest(compact, 4)

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
