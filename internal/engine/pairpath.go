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
// closure has no comparable identity. Every failure mode — unregistered
// pair, corrupt list, mid-serve decode error — falls back to the kernel
// path, which computes the same answer the slow way; the pair layer can
// be slow, never wrong.

// conceptPairs looks up the registered pair table for two concepts
// under a kernel fingerprint, containing the panic a corrupt
// in-memory list raises. A nil return means "not served by a pair
// list" — the caller proceeds on the kernel path, which still yields
// the full answer, so the failure is counted but the query is not
// degraded.
func (e *Engine) conceptPairs(qs *queryState, a, b index.Concept, fp uint64) (pt *index.PairTable) {
	defer func() {
		if r := recover(); r != nil {
			e.counters.decodeFailures.Add(1)
			pt = nil
		}
	}()
	t, ok := qs.idx.ConceptPairs(a, b, fp)
	if !ok {
		return nil
	}
	return t
}

// servePair answers a two-term conjunctive spec query entirely off
// its registered pair list. ok=false means the query was not (or
// could not be) pair-served and the caller must run the kernel path;
// no partial answer escapes — a mid-serve decode failure abandons the
// serve wholesale.
//
// The serve mirrors the kernel path's accounting: every record in the
// list is one candidate (tombstones included — the list's document
// set is exactly the two concepts' intersection), a record offered or
// tombstoned counts as evaluated, and a record (or whole block) that
// ranks strictly below the k-th kept entry (floorEntry.bar) counts as
// pruned.
func (e *Engine) servePair(qs *queryState, q Query, fp uint64, k int, start time.Time) (*Result, bool) {
	pt := e.conceptPairs(qs, q.Concepts[0], q.Concepts[1], fp)
	if pt == nil {
		return nil, false
	}
	e.counters.pairHits.Add(1)
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
		entries, err := pt.DecodeBlock(i)
		if err != nil {
			e.counters.decodeFailures.Add(1)
			return nil, false
		}
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
			top.offer(ent.Doc, ent.Score, scratch) // offer clones scratch
			floor = top.entry()
			evaluated++
		}
	}
	e.counters.pairServed.Add(1)
	res := &Result{
		Docs:       top.results(),
		Candidates: pt.NumDocs(),
		Evaluated:  evaluated,
		Pruned:     pruned,
	}
	return e.finish(qs, res, start), true
}
