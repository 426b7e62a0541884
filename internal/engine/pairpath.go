package engine

import (
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// Auxiliary pair-index serving (Veretennikov's additional indexes): a
// two-term conjunctive spec query whose (conceptA, conceptB, kernel
// fingerprint) triple has a registered pair list is served straight off
// that list. The stored per-document scores and witnesses ARE the
// kernel's outputs, so the answer is bitwise identical to the kernel
// path with zero posting decodes and zero joins — the response-time
// guarantee for the worst (common-word) pairs.
//
// It applies only to spec-only queries (Query.Join == nil): a pair list
// answers exactly the kernel spec that built it, and an opaque Join
// closure has no comparable identity. A pair with no list takes the
// kernel path, which computes the same answer the slow way. A list is
// only ever built in this process (index.Compact.AddConceptPairs), so
// serving it cannot fail.

// servePair answers a two-term conjunctive spec query entirely off
// its registered pair list. ok=false means the pair has no list and
// the caller must run the kernel path.
//
// The serve counts every record in the list as one candidate
// (tombstones included — the list's document set is exactly the two
// concepts' intersection, what an exhaustive walk confirms), a record
// offered or tombstoned as evaluated, and a record (or whole block)
// that ranks strictly below the k-th kept entry (floorEntry.bar) as
// pruned.
func (e *Engine) servePair(qs *queryState, q Query, fp uint64, k int, start time.Time) (*Result, bool) {
	pt, ok := qs.idx.ConceptPairs(q.Concepts[0], q.Concepts[1], fp)
	if !ok {
		return nil, false
	}
	qs.tally.PairHits++
	// Stored witnesses are in canonical (lower ConceptKey first) order;
	// kernel matchsets are term-indexed, so a query naming the concepts
	// in the other order needs the two entries swapped.
	swap := index.ConceptKey(q.Concepts[0]) > index.ConceptKey(q.Concepts[1])
	top := newTopK(k, q.Floor)
	evaluated, pruned := 0, 0
	scratch := make(match.Set, 2)
	for i := range pt.Infos {
		if qs.ctx.Err() != nil {
			qs.cancelled = true
			break
		}
		info := &pt.Infos[i]
		// Refreshed per block (a shared fleet floor may have risen) and
		// after every offer; the block's first document has the weakest
		// bar in it.
		floor := top.entry()
		if e.prune && info.MaxScore < floor.bar(info.FirstDoc) {
			// The whole block provably ranks below the k-th kept entry:
			// skip it without decoding.
			pruned += info.NDocs
			continue
		}
		entries, _ := pt.DecodeBlock(i)
		for _, ent := range entries {
			if !ent.OK {
				// The kernel produced no scorable result here at build
				// time; the kernel path would likewise evaluate the
				// document and offer nothing.
				evaluated++
				continue
			}
			// A record's exact score is its own tightest upper bound.
			if e.prune && ent.Score < floor.bar(ent.Doc) {
				pruned++
				continue
			}
			scratch[0], scratch[1] = ent.W0, ent.W1
			if swap {
				scratch[0], scratch[1] = ent.W1, ent.W0
			}
			top.offer(ent.Doc, ent.Score, scratch) // offer copies scratch
			floor = top.entry()
			evaluated++
		}
	}
	qs.tally.PairServed++
	res := &Result{
		Docs:       top.results(),
		Candidates: pt.NumDocs(),
		Evaluated:  evaluated,
		Pruned:     pruned,
	}
	return e.finish(qs, res, start), true
}
