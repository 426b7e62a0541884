package engine

// Unit tests of the served representation, a concept as the query-time
// union of its member stems' plain arrays: pruning in rank order at
// exact per-document maxima, and corrupt postings degrading a query
// over dense ids and over ids spaced wideStride apart. TestDifferential
// (the root package) holds every query to the reference ranker over
// both.

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"bestjoin/internal/index"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
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
// pivot screen. Every document scores identically and every bound ties
// the top-k floor, so what decides a document is its id alone: a
// document that still wins its tie against the k-th kept entry must be
// joined, and one that has lost it already must not be. Document i
// holds its words from location i on, so a probe reads each joined
// document's id off its list: every document up to the 4th kept one is
// joined, at any worker count, and only larger ids are skipped or
// pruned. One walker takes the 12 candidates in id order with a floor
// fresh after each offer: documents 0–3 fill the heap, pivot 4 loses
// its tie on id and is skipped, and since its one concept stood at its
// largest weight the walk jumps past every later document at once.
func TestBlocksPruneInRankOrder(t *testing.T) {
	docs := make([]string, 12)
	for i := range docs {
		docs[i] = strings.Repeat("quartz ", i) + "amber basalt"
	}
	compact := buildCompact(t, docs)
	concept := []index.Concept{{"amber": 1, "basalt": 1}}
	for _, workers := range []int{1, 4} {
		var joined idProbeLog
		q := Query{Concepts: concept, Join: idProbeFactory(&joined), K: 4}
		e := New(compact, Config{Workers: workers})
		res, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("all ties, %d workers", workers)
		assertSameDocs(t, label, res.Docs, oracle(compact, concept, 1, idProbeFactory(&idProbeLog{}), q.K))
		assertResultInvariants(t, label, res)
		if len(res.Docs) != 4 {
			t.Fatalf("%s: got %d docs, want 4", label, len(res.Docs))
		}
		for i, dr := range res.Docs {
			if dr.Doc != i {
				t.Fatalf("%s: rank %d is doc %d, want %d (tie-break by id broken)", label, i, dr.Doc, i)
			}
		}
		ids := joined.ids()
		for d := 0; d <= res.Docs[3].Doc; d++ {
			if !ids[d] {
				t.Fatalf("%s: doc %d, which wins its tie with the 4th kept doc %d, was not joined (joined %v)", label, d, res.Docs[3].Doc, ids)
			}
		}
		st := e.Stats()
		if workers == 1 && (res.Evaluated != 4 || res.Pruned != 1 || st.PivotSkips != 1 || res.Candidates != 5) {
			t.Fatalf("%s: %d candidates, %d evaluated, %d pruned, %d pivot skips; want 5, 4, 1 and 1",
				label, res.Candidates, res.Evaluated, res.Pruned, st.PivotSkips)
		}
	}
}

// idProbeLog collects the document ids an idProbe saw joined.
type idProbeLog struct {
	mu   sync.Mutex
	seen map[int]bool
}

func (l *idProbeLog) ids() map[int]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return maps.Clone(l.seen)
}

// idProbe is a WIN kernel that logs the location of each joined
// document's first match: on a corpus where document i's words start
// at location i, that is the document's id. It keeps the kernel's cap
// and window screen, so the engine prunes exactly as it would without
// the probe.
type idProbe struct {
	probedKernel
	log *idProbeLog
}

func idProbeFactory(log *idProbeLog) KernelFactory {
	return func() join.Kernel {
		return idProbe{join.NewWINKernel(scorefn.ExpWIN{Alpha: 0.07}), log}
	}
}

func (p idProbe) Reset(fn any, lists match.Lists) {
	p.log.mu.Lock()
	if p.log.seen == nil {
		p.log.seen = map[int]bool{}
	}
	p.log.seen[lists[0][0].Loc] = true
	p.log.mu.Unlock()
	p.probedKernel.Reset(fn, lists)
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
