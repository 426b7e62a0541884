// Package remote puts the shard tier across process boundaries: a
// Shard is an HTTP client implementing shard.Child against a shard
// process, and a Server exposes an engine.Searcher as that process.
// A shard.Coordinator composes unchanged over remote children, so the
// scatter-gather, rank-merge, and quorum semantics are exactly the
// in-process tier's — only the transport differs.
//
// # Wire format
//
// Queries and results cross the wire as JSON (one POST per shard
// query). JSON round-trips float64 exactly — Go emits the shortest
// decimal that parses back to the identical bits — which is what
// keeps a healthy remote fleet's merged answer bitwise identical to
// the in-process coordinator's. Two lossy spots are handled
// explicitly: the kernel factory (a closure) travels as its
// engine.KernelSpec and is rebuilt identically on the serving side,
// and the pruning floor (±Inf is unrepresentable in JSON) travels as
// an optional finite snapshot, omitted while the floor still sits at
// -Inf. The floor is a performance channel only — pruning is
// strictly-below and lossless — so the remote tier's weaker floor
// sharing (a snapshot at send time rather than a live shared
// maximum) never changes any score or rank.
//
// Both directions decode defensively, PR 1 style: body-size caps,
// DisallowUnknownFields, bounds on every count and length, and
// finiteness checks on every float. A response that fails validation
// is treated exactly like a torn TCP stream: the attempt is
// retryable, never trusted.
package remote

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// Wire limits. Queries are small (concepts and knobs); results carry
// up to K documents with matchsets, so their cap is wider. Hostile
// peers are assumed: every limit is enforced on decode.
const (
	// MaxQueryBytes caps a /shardquery request body.
	MaxQueryBytes = 1 << 20
	// MaxResultBytes caps a /shardquery response body.
	MaxResultBytes = 32 << 20
	// maxConcepts caps the number of concepts in one wire query.
	maxConcepts = 256
	// maxTermLen caps one concept term's byte length.
	maxTermLen = 1 << 10
	// maxTermsPerConcept caps one concept's expansion size.
	maxTermsPerConcept = 1 << 12
	// maxBudget caps the query's deadline budget.
	maxBudget = time.Hour
	// maxWireDocs caps the document rows in one wire result at the cap
	// on K itself (engine.MaxK), which Validate enforces on the query.
	maxWireDocs = engine.MaxK
	// maxWireMatches caps one document's matchset length.
	maxWireMatches = 1 << 16
	// maxWireCount caps each of the result's candidate-accounting
	// counters; a count beyond it is corruption, not scale.
	maxWireCount = 1 << 40
)

// WireQuery is engine.Query flattened for transport. The kernel
// travels as its spec; the floor as an optional finite snapshot.
type WireQuery struct {
	Concepts []index.Concept `json:"concepts"`
	Family   string          `json:"family"`
	Alpha    float64         `json:"alpha"`
	Valid    bool            `json:"valid,omitempty"`
	K        int             `json:"k,omitempty"`
	// Mode is "" (engine default), "and", or "or".
	Mode     string `json:"mode,omitempty"`
	MinMatch int    `json:"min_match,omitempty"`
	// Floor is the coordinator's pruning-floor snapshot at send time;
	// omitted while the floor is still -Inf (JSON cannot carry ±Inf).
	Floor *float64 `json:"floor,omitempty"`
	// BudgetMS is the per-shard deadline budget in milliseconds — the
	// slice of the coordinator query's remaining deadline carved out
	// for this attempt. 0 means no budget.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// WireMatch is one match in a document's best matchset.
type WireMatch struct {
	Loc   int     `json:"loc"`
	Score float64 `json:"score"`
}

// WireDoc is one ranked document row.
type WireDoc struct {
	Doc   int         `json:"doc"`
	Score float64     `json:"score"`
	Set   []WireMatch `json:"set,omitempty"`
}

// WireResult is engine.Result flattened for transport, plus the
// serving shard's index epoch (observability: a coordinator can see
// which generation answered).
type WireResult struct {
	Docs       []WireDoc `json:"docs"`
	Partial    bool      `json:"partial,omitempty"`
	Degraded   bool      `json:"degraded,omitempty"`
	Candidates int       `json:"candidates"`
	Evaluated  int       `json:"evaluated"`
	Pruned     int       `json:"pruned"`
	Failed     int       `json:"failed"`
	Epoch      uint64    `json:"epoch"`
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// EncodeQuery flattens an engine.Query for the wire. The query must
// carry a KernelSpec — the Join closure cannot cross a process
// boundary — and the floor, if shared, is snapshotted at call time.
func EncodeQuery(q engine.Query, budget time.Duration) (WireQuery, error) {
	if q.Spec.Zero() {
		return WireQuery{}, errors.New("remote: query has no kernel spec (Join closures cannot cross the wire)")
	}
	wq := WireQuery{
		Concepts: q.Concepts,
		Family:   q.Spec.Family,
		Alpha:    q.Spec.Alpha,
		Valid:    q.Spec.Valid,
		K:        q.K,
		MinMatch: q.MinMatch,
	}
	switch q.Mode {
	case engine.ModeDefault:
	case engine.ModeAND:
		wq.Mode = "and"
	case engine.ModeOR:
		wq.Mode = "or"
	default:
		return WireQuery{}, fmt.Errorf("remote: unknown query mode %d", q.Mode)
	}
	if q.Floor != nil {
		if f := q.Floor.Load(); finite(f) {
			wq.Floor = &f
		}
	}
	if budget > 0 {
		wq.BudgetMS = budget.Milliseconds()
		if wq.BudgetMS == 0 {
			wq.BudgetMS = 1 // sub-millisecond budgets still bound the shard
		}
	}
	return wq, nil
}

// Validate bounds-checks a decoded wire query; hostile peers are
// assumed, so everything a shard would otherwise trust is checked
// here. Kernel-spec validity (family, alpha finiteness) is checked by
// KernelSpec.Factory at resolution time.
func (wq *WireQuery) Validate() error {
	if len(wq.Concepts) == 0 {
		return errors.New("remote: query has no concepts")
	}
	if len(wq.Concepts) > maxConcepts {
		return fmt.Errorf("remote: %d concepts exceeds limit %d", len(wq.Concepts), maxConcepts)
	}
	for i, c := range wq.Concepts {
		if len(c) == 0 {
			return fmt.Errorf("remote: concept %d is empty", i)
		}
		if len(c) > maxTermsPerConcept {
			return fmt.Errorf("remote: concept %d has %d terms, exceeds limit %d", i, len(c), maxTermsPerConcept)
		}
		for term, w := range c {
			if term == "" || len(term) > maxTermLen {
				return fmt.Errorf("remote: concept %d has a term of length %d (limit %d, empty forbidden)", i, len(term), maxTermLen)
			}
			if !finite(w) {
				return fmt.Errorf("remote: concept %d term %q has non-finite weight", i, term)
			}
		}
	}
	if wq.K < 0 || wq.K > engine.MaxK {
		return fmt.Errorf("remote: k %d out of range [0, %d]", wq.K, engine.MaxK)
	}
	switch wq.Mode {
	case "", "and", "or":
	default:
		return fmt.Errorf("remote: unknown mode %q (want \"\", \"and\", or \"or\")", wq.Mode)
	}
	if wq.MinMatch < 0 || wq.MinMatch > len(wq.Concepts) {
		return fmt.Errorf("remote: min_match %d out of range [0, %d]", wq.MinMatch, len(wq.Concepts))
	}
	if wq.Floor != nil && !finite(*wq.Floor) {
		return errors.New("remote: non-finite floor")
	}
	if wq.BudgetMS < 0 || wq.BudgetMS > maxBudget.Milliseconds() {
		return fmt.Errorf("remote: budget %dms out of range [0, %d]", wq.BudgetMS, maxBudget.Milliseconds())
	}
	return nil
}

// ToQuery rebuilds the engine.Query a validated wire query describes.
// The kernel resolves from the spec (engine.Search resolves it again
// identically — Factory is deterministic — but resolving here surfaces
// a bad spec as a 400 instead of a shard-side search error), and the
// floor snapshot seeds a fresh local floor.
func (wq *WireQuery) ToQuery() (engine.Query, error) {
	spec := engine.KernelSpec{Family: wq.Family, Alpha: wq.Alpha, Valid: wq.Valid}
	if _, err := spec.Factory(); err != nil {
		return engine.Query{}, err
	}
	q := engine.Query{
		Concepts: wq.Concepts,
		Spec:     spec,
		K:        wq.K,
		MinMatch: wq.MinMatch,
	}
	switch wq.Mode {
	case "and":
		q.Mode = engine.ModeAND
	case "or":
		q.Mode = engine.ModeOR
	}
	if wq.Floor != nil {
		q.Floor = engine.NewGlobalFloor()
		q.Floor.Raise(*wq.Floor)
	}
	return q, q.CheckWidth()
}

// Budget returns the wire query's deadline budget (0 = none).
func (wq *WireQuery) Budget() time.Duration {
	return time.Duration(wq.BudgetMS) * time.Millisecond
}

// EncodeResult flattens an engine.Result for the wire, stamping the
// serving epoch.
func EncodeResult(r *engine.Result, epoch uint64) WireResult {
	wr := WireResult{
		Docs:       make([]WireDoc, len(r.Docs)),
		Partial:    r.Partial,
		Degraded:   r.Degraded,
		Candidates: r.Candidates,
		Evaluated:  r.Evaluated,
		Pruned:     r.Pruned,
		Failed:     r.Failed,
		Epoch:      epoch,
	}
	for i, d := range r.Docs {
		wd := WireDoc{Doc: d.Doc, Score: d.Score}
		if len(d.Set) > 0 {
			wd.Set = make([]WireMatch, len(d.Set))
			for j, m := range d.Set {
				wd.Set[j] = WireMatch{Loc: m.Loc, Score: m.Score}
			}
		}
		wr.Docs[i] = wd
	}
	return wr
}

// Validate bounds-checks a decoded wire result. The client calls it
// on every response: a shard answer that violates the engine's result
// invariants — unsorted rows, non-finite scores, absurd counts — is
// corruption (a torn write, a middlebox, a buggy peer) and must be
// retried elsewhere, never merged.
func (wr *WireResult) Validate() error {
	if len(wr.Docs) > maxWireDocs {
		return fmt.Errorf("remote: result carries %d docs, exceeds limit %d", len(wr.Docs), maxWireDocs)
	}
	for i, d := range wr.Docs {
		if d.Doc < 0 {
			return fmt.Errorf("remote: result doc %d has negative id %d", i, d.Doc)
		}
		if !finite(d.Score) {
			return fmt.Errorf("remote: result doc %d has non-finite score", i)
		}
		if len(d.Set) > maxWireMatches {
			return fmt.Errorf("remote: result doc %d matchset has %d entries, exceeds limit %d", i, len(d.Set), maxWireMatches)
		}
		for j, m := range d.Set {
			if m.Loc < 0 {
				return fmt.Errorf("remote: result doc %d match %d has negative location", i, j)
			}
			if !finite(m.Score) {
				return fmt.Errorf("remote: result doc %d match %d has non-finite score", i, j)
			}
		}
		if i > 0 {
			prev := wr.Docs[i-1]
			if d.Score > prev.Score || (d.Score == prev.Score && d.Doc <= prev.Doc) {
				return fmt.Errorf("remote: result docs out of rank order at row %d", i)
			}
		}
	}
	for _, n := range [...]int{wr.Candidates, wr.Evaluated, wr.Pruned, wr.Failed} {
		if n < 0 || n > maxWireCount {
			return fmt.Errorf("remote: result count %d out of range [0, %d]", n, maxWireCount)
		}
	}
	return nil
}

// ToResult rebuilds the engine.Result a validated wire result
// describes.
func (wr *WireResult) ToResult() *engine.Result {
	r := &engine.Result{
		Docs:       make([]engine.DocResult, len(wr.Docs)),
		Partial:    wr.Partial,
		Degraded:   wr.Degraded,
		Candidates: wr.Candidates,
		Evaluated:  wr.Evaluated,
		Pruned:     wr.Pruned,
		Failed:     wr.Failed,
	}
	for i, d := range wr.Docs {
		dr := engine.DocResult{Doc: d.Doc, Score: d.Score}
		if len(d.Set) > 0 {
			dr.Set = make(match.Set, len(d.Set))
			for j, m := range d.Set {
				dr.Set[j] = match.Match{Loc: m.Loc, Score: m.Score}
			}
		}
		r.Docs[i] = dr
	}
	return r
}
