package refrank

import (
	"math"
	"reflect"
	"testing"

	"bestjoin/internal/index"
	"bestjoin/internal/match"
)

// TestRank pins the contract on ids spaced 2^32+1 apart: the m filter
// and its qualifying count, a NaN score ranking nothing, ties broken by
// ascending id, and witnesses cloned out of a join that reuses one
// buffer. The join scores a document by its matched concepts, and NaN
// when its first match sits at 5.
func TestRank(t *testing.T) {
	const stride = 1<<32 + 1
	ix := index.New()
	for d, body := range []string{"amber", "amber basalt", "basalt cedar", "cedar amber basalt", "delta delta delta delta delta amber", "delta"} {
		ix.AddText(d*stride, body)
	}
	buf := make(match.Set, 3)
	count := func(lists match.Lists) (match.Set, float64, bool) {
		for j, l := range lists {
			buf[j] = l[0]
		}
		if lists[0][0].Loc == 5 {
			return buf, math.NaN(), true
		}
		return buf[:len(lists)], float64(len(lists)), true
	}
	for m, want := range map[int][]int{1: {3, 1, 2, 0}, 2: {3, 1, 2}, 3: {3}, 4: nil} {
		ranked, qualifying := Rank(ix.Compact(), []index.Concept{{"amber": 1}, {"basalt": 1}, {"cedar": 1}}, m, count)
		var docs []int
		for _, r := range ranked {
			docs = append(docs, r.Doc/stride)
		}
		if !reflect.DeepEqual(docs, want) || qualifying != map[int]int{1: 5, 2: 3, 3: 1}[m] {
			t.Fatalf("m %d: docs %v of %d qualifying, want %v", m, docs, qualifying, want)
		}
		if m == 1 && (ranked[1].Set[1] != match.Match{Loc: 1, Score: 1} || ranked[3].Set[0] != match.Match{Loc: 0, Score: 1}) {
			t.Fatalf("witnesses alias the join's buffer: %+v", ranked)
		}
	}
}
