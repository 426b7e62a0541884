package join_test

// Microbenchmarks contrasting the one-shot join functions with reused
// kernels on the same instance stream — the per-document cost an
// engine worker pays.
//
//	go test -bench=BenchmarkKernel -benchmem ./internal/join/

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bestjoin/internal/dedup"
	"bestjoin/internal/join"
	"bestjoin/internal/match"
	"bestjoin/internal/randinst"
	"bestjoin/internal/scorefn"
	"bestjoin/internal/synth"
)

func benchInstances(n int) []match.Lists {
	rng := rand.New(rand.NewSource(17))
	out := make([]match.Lists, n)
	for i := range out {
		out[i] = randinst.Lists(rng, randinst.Config{Terms: 3, MaxPerList: 12, MaxLoc: 300})
	}
	return out
}

func BenchmarkKernelVsOneShot(b *testing.B) {
	instances := benchInstances(64)
	for _, tc := range kernelCases() {
		b.Run(tc.name+"/oneshot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.shot(instances[i%len(instances)])
			}
		})
		b.Run(tc.name+"/kernel", func(b *testing.B) {
			kern := tc.kernel()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kern.Reset(nil, instances[i%len(instances)])
				kern.Join()
			}
		})
	}
}

// BenchmarkValidKernel times the kernel that is actually served — the
// duplicate-avoidance wrapper over a reused inner kernel — on the
// paper's synthetic workload at three duplicate frequencies (λ = 50,
// 2.0 and 0.85: 0 %, 26 % and 60 % of matches share their token with
// another term). invocations/op is the Figure 8 metric; allocs/op must
// read 0 at every frequency. The floor arm is the same walk as an
// engine worker sees it late in a query: armed with the median root
// optimum of the instance set, so about half the documents stop after
// their first inner run and the rest search to their valid optimum.
// The other two arms isolate the window screen: under floor=window-cut
// no document can reach the floor and every join ends at the screen,
// the screen — no merge — its whole cost; under floor=survivor the
// screen is armed with a floor nothing falls below, so its difference
// from the floorless arm is what the screen costs a document it lets
// through.
func BenchmarkValidKernel(b *testing.B) {
	for _, tc := range kernelCases()[:2] { // win, med
		for _, d := range []struct {
			name   string
			lambda float64
		}{{"dup=0", 50}, {"dup=25", 2.0}, {"dup=60", 0.85}} {
			cfg := synth.DefaultConfig()
			cfg.Docs, cfg.Lambda, cfg.Seed = 64, d.lambda, 17
			docs := synth.Generate(cfg).Docs
			roots := make([]float64, 0, len(docs))
			for _, lists := range docs {
				if _, score, ok := tc.shot(lists); ok {
					roots = append(roots, score)
				}
			}
			sort.Float64s(roots)
			for _, arm := range []struct {
				suffix string
				floor  float64
			}{
				{"", math.Inf(-1)}, {"/floor", roots[len(roots)/2]},
				{"/floor=window-cut", math.MaxFloat64}, {"/floor=survivor", math.SmallestNonzeroFloat64},
			} {
				b.Run(tc.name+"/"+d.name+arm.suffix, func(b *testing.B) {
					kern := dedup.Wrap(tc.kernel())
					kern.SetFloor(arm.floor)
					invocations := 0
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						kern.Reset(nil, docs[i%len(docs)])
						kern.Join()
						invocations += kern.Invocations()
					}
					b.ReportMetric(float64(invocations)/float64(b.N), "invocations/op")
				})
			}
		}
	}
}

// flooredKernel is a kernel the window screen arms.
type flooredKernel interface {
	join.Kernel
	join.Floored
}

// BenchmarkWindowScreen times one armed WIN or MED join at three and
// five terms (up to 12 matches per list over 300 locations) on the two
// kinds of document the window screen sees: /cut, one whose cap is
// below the floor, so the join is the screen alone — a pass over each
// list and a sweep over their heads, no merge — and /pass, the same
// lists with a tight cluster of perfect matches added whose score is
// the floor itself, so the screen lets it through to the merge and the
// dynamic program. Both must read 0 allocs/op.
func BenchmarkWindowScreen(b *testing.B) {
	for _, kc := range []struct {
		name  string
		build func() flooredKernel
	}{
		{"win", func() flooredKernel { return join.NewWINKernel(scorefn.ExpWIN{Alpha: 0.1}) }},
		{"med", func() flooredKernel { return join.NewMEDKernel(scorefn.ExpMED{Alpha: 0.1}) }},
	} {
		for _, q := range []int{3, 5} {
			rng := rand.New(rand.NewSource(int64(q)))
			cut := randinst.Lists(rng, randinst.Config{Terms: q, MaxPerList: 12, MaxLoc: 300})
			pass := make(match.Lists, q)
			for j, l := range cut {
				pass[j] = append(l.Clone(), match.Match{Loc: 400 + j, Score: 1})
			}
			kern := kc.build()
			kern.Reset(nil, pass)
			_, floor, _ := kern.Join()
			kern.SetFloor(floor)
			for _, doc := range []struct {
				name  string
				lists match.Lists
				cut   bool
			}{{"cut", cut, true}, {"pass", pass, false}} {
				b.Run(fmt.Sprintf("%s/w%d/%s", kc.name, q, doc.name), func(b *testing.B) {
					kern.Reset(nil, doc.lists)
					if _, _, ok := kern.Join(); ok == doc.cut || kern.WindowCut() != doc.cut {
						b.Fatalf("ok %v, WindowCut %v: the document is not the kind it is named for", ok, kern.WindowCut())
					}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						kern.Reset(nil, doc.lists)
						kern.Join()
					}
				})
			}
		}
	}
}
