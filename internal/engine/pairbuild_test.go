package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// TestBuildPairIndexPinned pins what BuildPairIndex registers — which
// concept pairs get a list, and every skip entry and record of each —
// at three budgets, one of them the load harness's 4 MiB, on a fixed
// corpus. The harness defines its pair2 query class as the pairs this
// build registers, so a change here changes its request stream.
func TestBuildPairIndexPinned(t *testing.T) {
	const want = "f31b8b1c55d3f139801118b81f0a77f10ade812a8f691c97e1116633044765ef"
	docs := testCorpus(150, 4242)
	h := sha256.New()
	for _, spec := range []KernelSpec{
		{Family: "win", Alpha: 0.1, Valid: true},
		{Family: "med", Alpha: 0.1, Valid: true},
	} {
		for _, budget := range []int{3000, 60000, 4 << 20} {
			c := buildCompact(t, docs)
			concepts := testConcepts()
			for _, stem := range c.HeavyStems(10) {
				concepts = append(concepts, index.Concept{stem: 1})
			}
			added, err := BuildPairIndex(c, concepts, spec, budget)
			if err != nil {
				t.Fatal(err)
			}
			if found := hashPairLists(h, c, concepts, spec.Fingerprint()); found != added {
				t.Fatalf("%v budget %d: BuildPairIndex registered %d lists, %d found", spec, budget, added, found)
			}
			fmt.Fprintf(h, "%v/%d:%d;", spec, budget, added)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("pair build hash %s, want %s", got, want)
	}
}

// referenceBuildPairIndex is the selector as it stood before the
// plan/build split, kept as the reference BuildPairIndex must agree
// with byte for byte: the load harness mirrors that selection to derive
// its pair2 query class.
func referenceBuildPairIndex(idx *index.Compact, concepts []index.Concept, spec KernelSpec, budgetBytes int) int {
	factory, err := spec.Factory()
	if err != nil {
		panic(err)
	}
	kern := factory()
	join := func(lists match.Lists) (match.Set, float64, bool) {
		kern.Reset(nil, lists)
		return kern.Join()
	}
	type cand struct{ a, b, cost int }
	var cands []cand
	for i := range concepts {
		ci := idx.ConceptPostingBytes(concepts[i])
		if ci == 0 {
			continue
		}
		for j := i + 1; j < len(concepts); j++ {
			if cj := idx.ConceptPostingBytes(concepts[j]); cj != 0 {
				cands = append(cands, cand{i, j, ci * cj})
			}
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].cost != cands[y].cost {
			return cands[x].cost > cands[y].cost
		}
		if cands[x].a != cands[y].a {
			return cands[x].a < cands[y].a
		}
		return cands[x].b < cands[y].b
	})
	added, spent := 0, 0
	for _, cd := range cands {
		if budgetBytes > 0 && spent >= budgetBytes {
			break
		}
		if n, ok := idx.AddConceptPairs(concepts[cd.a], concepts[cd.b], spec.Fingerprint(), join); ok {
			added++
			spent += n
		}
	}
	return added
}

// TestBuildPairIndexIsPlanThenBuild: BuildPairIndex — the plan (pairs
// by posting-bytes product) then the build — and the pre-split selector
// register the same lists, every pair of concepts looked up on each and
// its records compared bit for bit, at every budget, including ones
// that cut the plan short.
func TestBuildPairIndexIsPlanThenBuild(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		docs := testCorpus(60, 4100+int64(trial))
		concepts := append(testConcepts(), index.Concept{"quartz": 1, "ribbon": 0.6}, index.Concept{"saddle": 0.8})
		spec := KernelSpec{Family: []string{"win", "med", "max"}[trial%3], Alpha: 0.07, Valid: trial%2 == 1}
		for _, budget := range []int{0, 1, 400, 2000, 1 << 20} {
			want := buildCompact(t, docs)
			nWant := referenceBuildPairIndex(want, concepts, spec, budget)
			got := buildCompact(t, docs)
			nGot, err := BuildPairIndex(got, concepts, spec, budget)
			if err != nil {
				t.Fatal(err)
			}
			hGot, hWant := sha256.New(), sha256.New()
			if nGot != nWant || hashPairLists(hGot, got, concepts, spec.Fingerprint()) != nGot ||
				hashPairLists(hWant, want, concepts, spec.Fingerprint()) != nWant || !bytes.Equal(hGot.Sum(nil), hWant.Sum(nil)) {
				t.Fatalf("trial %d budget %d: BuildPairIndex registered %d lists, the reference selector %d, or their lists differ",
					trial, budget, nGot, nWant)
			}
		}
	}
}

// hashPairLists writes every registered list among the concepts' pairs
// to h, in pair order, and returns how many it found.
func hashPairLists(h hash.Hash, c *index.Compact, concepts []index.Concept, fp uint64) int {
	found := 0
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i := range concepts {
		for j := i + 1; j < len(concepts); j++ {
			pt, ok := c.ConceptPairs(concepts[i], concepts[j], fp)
			if !ok {
				continue
			}
			found++
			put(uint64(i))
			put(uint64(j))
			for b := 0; b < pt.NumBlocks(); b++ {
				info := pt.Infos[b]
				for _, v := range []int{info.FirstDoc, info.LastDoc, info.NDocs, info.Off, info.Len} {
					put(uint64(v))
				}
				entries, _ := pt.DecodeBlock(b)
				for _, e := range entries {
					put(uint64(e.Doc))
					if e.OK {
						put(math.Float64bits(e.Score))
						put(uint64(e.W0.Loc))
						put(math.Float64bits(e.W0.Score))
						put(uint64(e.W1.Loc))
						put(math.Float64bits(e.W1.Score))
					}
				}
			}
		}
	}
	return found
}
