package engine

import (
	"slices"
	"testing"
)

// assertResultInvariants checks the Result accounting contract shared
// by every evaluation path, the audit behind the Partial derivation in
// finish(): each confirmed candidate is evaluated, pruned, or failed
// at most once — the sum can never exceed Candidates — and a result
// claiming to be complete (!Partial) accounted for every candidate
// exactly once. Partial ⇔ shortfall or cancellation; cancellation is
// not observable from a Result alone, so the reverse direction asserts
// only that a non-partial result has no shortfall. Keeping finish()'s
// `!=` comparison (rather than `<`) means a double-count would surface
// here as an over-full complete result, not vanish into Partial.
func assertResultInvariants(t *testing.T, label string, res *Result) {
	t.Helper()
	if res.Evaluated < 0 || res.Pruned < 0 || res.Failed < 0 || res.Candidates < 0 {
		t.Fatalf("%s: negative accounting: %+v", label, res)
	}
	sum := res.Evaluated + res.Pruned + res.Failed
	if sum > res.Candidates {
		t.Fatalf("%s: Evaluated(%d)+Pruned(%d)+Failed(%d) = %d exceeds Candidates %d — a document was double-counted",
			label, res.Evaluated, res.Pruned, res.Failed, sum, res.Candidates)
	}
	if !res.Partial && sum != res.Candidates {
		t.Fatalf("%s: complete result with accounting shortfall: Evaluated(%d)+Pruned(%d)+Failed(%d) = %d != Candidates %d",
			label, res.Evaluated, res.Pruned, res.Failed, sum, res.Candidates)
	}
}

// assertIdentical holds two results of one query to the same answer:
// both pass the accounting invariants, agree on Partial, and rank the
// same documents, scores and matchsets. Candidates is not compared: a
// walk that prunes jumps past documents it never confirms.
func assertIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	assertResultInvariants(t, label+" got", got)
	assertResultInvariants(t, label+" want", want)
	if got.Partial != want.Partial {
		t.Fatalf("%s: Partial %v vs %v", label, got.Partial, want.Partial)
	}
	assertSameDocs(t, label, got.Docs, want.Docs)
}

// assertSameDocs compares two rankings with equalDocs.
func assertSameDocs(t *testing.T, label string, got, want []DocResult) {
	t.Helper()
	if !equalDocs(got, want) {
		t.Fatalf("%s: ranked\n%+v\nwant\n%+v", label, got, want)
	}
}

// equalDocs compares two rankings: documents, scores and matchsets. It
// is callable off the test's goroutine.
func equalDocs(a, b []DocResult) bool {
	return slices.EqualFunc(a, b, func(x, y DocResult) bool {
		return x.Doc == y.Doc && x.Score == y.Score && slices.Equal(x.Set, y.Set)
	})
}
