package join

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/scorefn"
)

// rareDocs draws n documents shaped like a query whose terms are rare
// together: three lists over 800 locations, one of 1–2 matches and two
// of 20–40, at a random term index each; scores are lexicon-like
// weights.
func rareDocs(n int) []match.Lists {
	rng := rand.New(rand.NewSource(52))
	weights := []float64{1, 0.9, 0.8, 0.7, 0.6}
	list := func(size int) match.List {
		l := make(match.List, size)
		for i := range l {
			l[i] = match.Match{Loc: rng.Intn(800), Score: weights[rng.Intn(len(weights))]}
		}
		slices.SortFunc(l, func(a, b match.Match) int { return a.Loc - b.Loc })
		return l
	}
	docs := make([]match.Lists, n)
	for d := range docs {
		short := rng.Intn(3)
		docs[d] = make(match.Lists, 3)
		for j := range docs[d] {
			if j == short {
				docs[d][j] = list(1 + rng.Intn(2))
			} else {
				docs[d][j] = list(20 + rng.Intn(21))
			}
		}
	}
	return docs
}

// BenchmarkFlooredJoin times an armed WIN or MED join, window screen and
// anchor trim included, over rareDocs, with the floor at the documents'
// median floorless optimum, as a worker sees it once a query's heap has
// filled: about half the documents are cut, most at the screen, and the
// rest run the program on their trimmed lists. matches/join is what the
// program reads per join (0 for one cut before it), listed/join the
// matches the documents hold.
//
//	go test -run '^$' -bench BenchmarkFlooredJoin -benchmem ./internal/join/
func BenchmarkFlooredJoin(b *testing.B) {
	docs := rareDocs(64)
	listed := 0
	for _, lists := range docs {
		listed += lists.TotalSize()
	}
	for _, kc := range []struct {
		name string
		k    interface {
			Kernel
			Floored
			stream() *eventStream
		}
	}{
		{"win", winStream{NewWINKernel(scorefn.ExpWIN{Alpha: 0.1})}},
		{"med", medStream{NewMEDKernel(scorefn.ExpMED{Alpha: 0.1})}},
	} {
		b.Run(kc.name, func(b *testing.B) {
			k := kc.k
			k.SetFloor(math.Inf(-1))
			optima := make([]float64, 0, len(docs))
			for _, lists := range docs {
				k.Reset(nil, lists)
				if _, score, ok := k.Join(); ok {
					optima = append(optima, score)
				}
			}
			sort.Float64s(optima)
			k.SetFloor(optima[len(optima)/2])
			read := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := k.stream()
				s.events = s.events[:0]
				k.Reset(nil, docs[i%len(docs)])
				k.Join()
				read += len(s.events)
			}
			b.ReportMetric(float64(read)/float64(b.N), "matches/join")
			b.ReportMetric(float64(listed)/float64(len(docs)), "listed/join")
		})
	}
}
