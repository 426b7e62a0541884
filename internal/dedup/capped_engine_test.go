package dedup_test

import (
	"context"
	"strings"
	"testing"

	"bestjoin/internal/dedup"
	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/synth"
)

// synthIndex turns a synth dataset into a searchable corpus: every
// match location of every document gets a word of its own (consonants
// only, so the stemmer leaves it alone), every other location a filler,
// and concept j scores each word with term j's match there — so the
// engine's per-document lists are exactly the dataset's.
func synthIndex(ds *synth.Dataset) (*index.Compact, []index.Concept) {
	const letters = "bcdfghjklmnpqrtvwxz"
	word := func(doc, loc int) string {
		var b strings.Builder
		for n := doc*ds.Config.DocWords + loc + 1; n > 0; n /= len(letters) {
			b.WriteByte(letters[n%len(letters)])
		}
		return "k" + b.String()
	}
	concepts := make([]index.Concept, ds.Config.Terms)
	for j := range concepts {
		concepts[j] = index.Concept{}
	}
	ix := index.New()
	for d, lists := range ds.Docs {
		words := make([]string, ds.Config.DocWords)
		for i := range words {
			words[i] = "filler"
		}
		for j, l := range lists {
			for _, m := range l {
				words[m.Loc] = word(d, m.Loc)
				concepts[j][words[m.Loc]] = m.Score
			}
		}
		ix.AddText(d, strings.Join(words, " "))
	}
	return ix.Compact(), concepts
}

// TestEngineFlagsCappedJoins: a join whose duplicate search stops at
// the rerun cap has no trustworthy score, so the engine must leave the
// document out and say so — Partial, never an unflagged answer — and
// everything it does return must carry its true score. The cap is
// lowered through the test hook on the paper's synthetic workload at
// 60 % duplicate frequency; at the real cap the same queries are whole.
func TestEngineFlagsCappedJoins(t *testing.T) {
	compact, concepts := synthIndex(synth.Generate(synth.Config{
		Docs: 60, DocWords: 40, Terms: 4, Matches: 24, Lambda: 0.85, ZipfS: 1.1, Seed: 7007,
	}))
	spec := engine.KernelSpec{Family: "win", Alpha: 0.1, Valid: true}
	for name, q := range map[string]engine.Query{
		"and": {Concepts: concepts, Spec: spec, K: compact.Docs()},
		"or":  {Concepts: concepts, Spec: spec, K: compact.Docs(), Mode: engine.ModeOR},
	} {
		search := func() (*engine.Result, engine.Stats) {
			e := engine.New(compact, engine.Config{Workers: 2})
			res, err := e.Search(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res, e.Stats()
		}
		full, st := search()
		if full.Partial || st.DedupCapped != 0 || st.KernelInvocations <= st.JoinsRun {
			t.Fatalf("%s at the real cap: Partial %v, DedupCapped %d, %d invocations over %d joins", name, full.Partial, st.DedupCapped, st.KernelInvocations, st.JoinsRun)
		}
		truth := map[int]engine.DocResult{}
		for _, d := range full.Docs {
			truth[d.Doc] = d
		}

		restore := dedup.SetMaxInvocations(2)
		capped, st := search()
		restore()
		if !capped.Partial || st.DedupCapped == 0 || st.PartialResults != 1 {
			t.Fatalf("%s under a cap of 2: Partial %v, DedupCapped %d, PartialResults %d", name, capped.Partial, st.DedupCapped, st.PartialResults)
		}
		if capped.Evaluated+capped.Pruned+int(st.DedupCapped) != capped.Candidates || len(capped.Docs) >= len(full.Docs) {
			t.Fatalf("%s under a cap of 2: %d evaluated + %d pruned + %d capped of %d candidates, %d docs of %d",
				name, capped.Evaluated, capped.Pruned, st.DedupCapped, capped.Candidates, len(capped.Docs), len(full.Docs))
		}
		for _, d := range capped.Docs {
			want, ok := truth[d.Doc]
			if !ok || d.Score != want.Score || !equalSets(d, want) {
				t.Fatalf("%s under a cap of 2: returned %+v, the whole search has %+v", name, d, want)
			}
		}

		again, _ := search()
		if again.Partial || len(again.Docs) != len(full.Docs) {
			t.Fatalf("%s after restoring the cap: Partial %v, %d docs of %d", name, again.Partial, len(again.Docs), len(full.Docs))
		}
		for i, d := range again.Docs {
			if d.Doc != full.Docs[i].Doc || d.Score != full.Docs[i].Score || !equalSets(d, full.Docs[i]) {
				t.Fatalf("%s after restoring the cap: rank %d %+v, was %+v", name, i, d, full.Docs[i])
			}
		}
	}
}

func equalSets(a, b engine.DocResult) bool {
	if len(a.Set) != len(b.Set) {
		return false
	}
	for j := range a.Set {
		if a.Set[j] != b.Set[j] {
			return false
		}
	}
	return true
}
