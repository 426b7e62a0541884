package engine

import (
	"math"
	"sort"
	"time"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// Auxiliary pair-index planner stage (Veretennikov's additional
// indexes, merged with the engine's threshold-algorithm pruning per
// Fagin et al.):
//
//   - A two-term conjunctive spec query whose (conceptA, conceptB,
//     kernel fingerprint) triple has a registered pair list is served
//     straight off that list: the stored per-document scores and
//     witnesses ARE the kernel's outputs, so the answer is bitwise
//     identical to the kernel path with zero posting decodes and zero
//     joins — the response-time guarantee for the worst (common-word)
//     pairs.
//   - A wider conjunctive spec query uses registered pair lists to
//     tighten per-candidate score upper bounds before dispatch: the
//     restriction of any matchset to two of its lists is itself a
//     pair matchset, so the stored pair score caps those two terms'
//     contribution more tightly than their independent per-list
//     maxima do.
//
// Both stages apply only to spec-only queries (Query.Join == nil):
// a pair list answers exactly the kernel spec that built it, and an
// opaque Join closure has no comparable identity. Every failure mode
// — unregistered pair, corrupt list, mid-serve decode error — falls
// back to the kernel path, which computes the same answer the slow
// way; the pair layer can be slow, never wrong.

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
			// skip it without decoding, like the block-max skip layer.
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

// tightenPairBounds lowers per-candidate score upper bounds of a
// wider (≥ 3 concepts) conjunctive spec query using registered pair
// lists, in place. It returns a copy of the original bounds when any
// bound was tightened (so the dispatcher can attribute prunes the
// pair bound alone caused), nil when nothing changed.
//
// Soundness, per family (the inflation below absorbs floating-point
// association differences):
//
//   - "win" (ExpWIN, score = exp(Σ ln s_j − α·window)): restricting a
//     matchset M to lists {j1, j2} yields a pair matchset whose
//     window is ≤ M's and whose key is ≤ the stored best pair key
//     (valid matchsets restrict to valid matchsets, so this holds
//     under dedup too); every other term contributes a factor
//     s_j ≤ max_j. Hence score(M) ≤ pairScore · Π_{j∉pair} max_j
//     whenever all factors are positive and α ≥ 0. Matchsets with a
//     zero-score match score 0 ≤ the bound, and ones with a negative
//     match score evaluate to NaN and are never offered, so the bound
//     dominates every offer the kernel path could make.
//   - "max" (SumMAX, score = max_l Σ s_j·e^(−α·dist)): at M's best
//     reference location the pair terms contribute at most the
//     stored pair score (which maximizes over all locations), and
//     each other term at most max(max_j, 0) when α ≥ 0. Hence
//     score(M) ≤ pairScore + Σ_{j∉pair} max(max_j, 0).
//   - "med": no tightening — MED's reference location is defined by
//     the matchset, not maximized, so the stored pair score does not
//     cap the pair terms' contribution under the full matchset's
//     median without inverting F. Left to the per-list bound.
func (e *Engine) tightenPairBounds(qs *queryState, q Query, fp uint64, candidates []int, perListMax, bounds []float64) []float64 {
	family := q.Spec.Family
	if (family != "win" && family != "max") || !(q.Spec.Alpha >= 0) {
		return nil
	}
	nc := len(q.Concepts)
	var orig []float64
	for j1 := 0; j1 < nc; j1++ {
	pairs:
		for j2 := j1 + 1; j2 < nc; j2++ {
			pt := e.conceptPairs(qs, q.Concepts[j1], q.Concepts[j2], fp)
			if pt == nil {
				continue
			}
			e.counters.pairHits.Add(1)
			// Candidates ascend (cursor intersection), so one forward
			// walk aligns them with the pair blocks; each block decodes
			// at most once per pair.
			bi := 0
			var decoded []index.PairEntry
			decodedIdx := -1
			for i, doc := range candidates {
				for bi < len(pt.Infos) && pt.Infos[bi].LastDoc < doc {
					bi++
				}
				if bi == len(pt.Infos) {
					break
				}
				if doc < pt.Infos[bi].FirstDoc {
					// A conjunctive candidate contains both concepts, so
					// a complete pair list covers it; absence means the
					// list predates this corpus state — leave the bound.
					continue
				}
				if decodedIdx != bi {
					es, err := pt.DecodeBlock(bi)
					if err != nil {
						// Bounds tightened so far came from valid decodes
						// and stay; the rest of this pair is abandoned.
						e.counters.decodeFailures.Add(1)
						continue pairs
					}
					decoded, decodedIdx = es, bi
				}
				x := sort.Search(len(decoded), func(x int) bool { return decoded[x].Doc >= doc })
				if x == len(decoded) || decoded[x].Doc != doc || !decoded[x].OK {
					// Tombstones give no usable cap: "the pair join
					// failed" does not bound what a wider matchset using
					// these lists can score.
					continue
				}
				ps := decoded[x].Score
				nb := ps
				sound := true
				switch family {
				case "win":
					if ps <= 0 {
						sound = false
						break
					}
					for j := 0; j < nc; j++ {
						if j == j1 || j == j2 {
							continue
						}
						m := perListMax[i*nc+j]
						if m <= 0 {
							sound = false
							break
						}
						nb *= m
					}
				case "max":
					for j := 0; j < nc; j++ {
						if j == j1 || j == j2 {
							continue
						}
						if m := perListMax[i*nc+j]; m > 0 {
							nb += m
						}
					}
				}
				if !sound {
					continue
				}
				// Inflate by ~4500 ulps so the real-arithmetic inequality
				// survives the kernel's different summation order; the
				// differential harness holds the answer to bitwise
				// identity, so the margin must dominate rounding, and it
				// does by orders of magnitude.
				nb += math.Abs(nb) * 1e-12
				if nb < bounds[i] {
					if orig == nil {
						orig = append([]float64(nil), bounds...)
					}
					bounds[i] = nb
				}
			}
		}
	}
	return orig
}
