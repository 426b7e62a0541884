// Package refranktest is the differential matrix: the engine's one
// invariant, stated once. Every configuration of every healthy
// topology returns the top-k that internal/refrank ranks by joining
// every document with the query's own kernel — documents, scores and
// witnesses bit for bit — and, on the tie- and duplicate-heavy
// corpora, the top-k internal/naive ranks. Each row of a seeded
// covering design takes one value of every axis:
//
//   - corpus: random over a twelve-word vocabulary, or copies of a few
//     templates, each with dense ids and with ids spaced 2^32+1 apart;
//   - family: WIN, MED and MAX, bare and valid, as a Join closure or a
//     Spec;
//   - query: AND, OR and every m of n over 1, 2, 3 or 5 concepts, at K
//     1, 5, 50 or a random K;
//   - engine: 1, 4 or 8 workers, at the dealt K or (a cover row) at
//     a K no smaller than the qualifying count, where no bar ever
//     rises and the pruned walk must visit every qualifying document;
//   - topology: one engine, a coordinator over 1, 2 or 4 in-process
//     shards, or a loopback remote fleet of 1–3 shards;
//   - pair tier: none, lists built at start-up, or (on a remote fleet)
//     lists its shards build on demand from a plan;
//   - floor: none, or Query.Floor raised to the reference's k-th score
//     (lossless: k documents score at least that) before the query, or
//     in process once a heap has filled, as a fleet peer's floor lands.
//
// A row runs its query, then the query with its concepts reversed: a
// repeat over decoded stems that reads a pair list in the other order.
// Run deals the whole matrix, or a Slice of it: the layer a package's
// own differential test holds to the reference. Under -short every
// axis value of the slice still comes up.
//
// The package imports the engine, the coordinator and the remote
// fleet, so a test of one of those packages that runs it is an
// external test (package engine_test, shard_test, remote_test).
package refranktest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/match"
	"bestjoin/internal/naive"
	"bestjoin/internal/refrank"
	"bestjoin/internal/remote"
	"bestjoin/internal/scorefn"
	"bestjoin/internal/shard"
)

// wideStride spaces document ids 2^32+1 apart: every id past the first
// is beyond 32 bits.
const wideStride = 1<<32 + 1

var diffVocab = strings.Fields("amber basalt cedar delta ember fjord garnet harbor indigo jasper krill lumen")

// diffCorpus draws n documents of 18–27 vocabulary words: copies of the
// given number of templates, every fresh-th one a body of its own
// (every one at fresh 1, none at fresh 0).
func diffCorpus(rng *rand.Rand, n, templates, fresh int) []string {
	body := func() string {
		words := make([]string, 18+rng.Intn(10))
		for i := range words {
			words[i] = diffVocab[rng.Intn(len(diffVocab))]
		}
		return strings.Join(words, " ")
	}
	tmpl := make([]string, templates)
	for i := range tmpl {
		tmpl[i] = body()
	}
	docs := make([]string, n)
	for d := range docs {
		if fresh > 0 && d%fresh == fresh-1 {
			docs[d] = body()
		} else {
			docs[d] = tmpl[rng.Intn(len(tmpl))]
		}
	}
	return docs
}

// diffFamily is one kernel under test: its spec, a witness's score
// under it, and the exhaustive join internal/naive runs for it.
type diffFamily struct {
	spec  engine.KernelSpec
	score func(match.Set) float64
	naive refrank.Join
}

// diffFamilies lists WIN, MED and MAX bare, then valid.
func diffFamilies() []diffFamily {
	win, med, max := scorefn.ExpWIN{Alpha: 0.07}, scorefn.ExpMED{Alpha: 0.05}, scorefn.SumMAX{Alpha: 0.1}
	fams := []diffFamily{
		{engine.KernelSpec{Family: "win", Alpha: win.Alpha},
			func(s match.Set) float64 { return scorefn.ScoreWIN(win, s) },
			func(l match.Lists) (match.Set, float64, bool) { return naive.WIN(win, l) }},
		{engine.KernelSpec{Family: "med", Alpha: med.Alpha},
			func(s match.Set) float64 { return scorefn.ScoreMED(med, s) },
			func(l match.Lists) (match.Set, float64, bool) { return naive.MED(med, l) }},
		{engine.KernelSpec{Family: "max", Alpha: max.Alpha},
			func(s match.Set) float64 { v, _ := scorefn.ScoreMAX(max, s); return v },
			func(l match.Lists) (match.Set, float64, bool) { return naive.MAX(max, l) }},
	}
	for _, f := range fams {
		score := f.score
		f.spec.Valid = true
		f.naive = func(l match.Lists) (match.Set, float64, bool) { return naive.BestValid(l, score) }
		fams = append(fams, f)
	}
	return fams
}

// tiedConcepts are what a templated corpus is asked. The valid ones
// overlap pairwise, with the graded scores of a lexicon expansion, so
// over a fifth of the joins have a duplicate-unaware optimum that is
// not valid. A word all three share puts a window of zero in nearly
// every document, where the window screen cuts nothing, so the bare
// kernels are asked disjoint concepts.
func tiedConcepts(valid bool) []index.Concept {
	if !valid {
		return []index.Concept{{"amber": 1, "basalt": 0.7}, {"cedar": 1, "delta": 0.7}, {"ember": 1, "fjord": 0.7}}
	}
	return []index.Concept{
		{"amber": 1, "basalt": 0.7, "cedar": 0.7, "ember": 0.4},
		{"cedar": 1, "delta": 0.7, "ember": 0.7, "amber": 0.4},
		{"ember": 1, "fjord": 0.7, "amber": 0.7, "delta": 0.4},
	}
}

type diffCorpusSpec struct {
	name      string
	docs      []string
	templated bool
}

// Shape is a query's width, mode and MinMatch.
type Shape struct {
	Width    int
	Mode     engine.QueryMode
	MinMatch int
}

// Union reports whether the shape runs the union walk: an OR query,
// or m of n concepts for m < n.
func (s Shape) Union() bool {
	return s.Mode == engine.ModeOR || s.MinMatch > 0 && s.MinMatch < s.Width
}

// Pair tiers.
const (
	NoPairs     = iota
	BuiltPairs  // lists built at start-up
	DemandPairs // lists a remote fleet's shards build on demand from a plan
)

// Topology is one engine (Shards 0), a coordinator over Shards
// in-process shards, or a remote fleet of Shards, and its pair Tier.
type Topology struct {
	Remote       bool
	Shards, Tier int
}

type diffRow struct {
	corpus                 diffCorpusSpec
	fam                    diffFamily
	shape                  Shape
	topo                   Topology
	concepts               []index.Concept
	k, workers             int
	spaced, closure, cover bool // cover: K covers every qualifying document
	floor                  int  // none, raised before the query, or raised mid-query; none on a cover row
	eligible               bool // a two-term AND query a pair list serves
}

func (r diffRow) String() string {
	return fmt.Sprintf("%s spaced %v %+v closure %v %+v K %d workers %d cover %v %+v floor %v %v",
		r.corpus.name, r.spaced, r.fam.spec, r.closure, r.shape, r.k, r.workers, r.cover, r.topo, r.floor, r.concepts)
}

// Slice picks part of the matrix: the rows whose axes it keeps. Its
// zero value keeps every row.
type Slice struct {
	// Topologies keeps the topologies it accepts; nil keeps all.
	Topologies func(Topology) bool
	// Shapes keeps, on topologies whose engines hold no pair list, the
	// query shapes it accepts; nil keeps all.
	Shapes func(Shape) bool
	// Corpus keeps the corpora whose names start with it: "random",
	// or one of the templated corpora, "mixed" and "tied". Empty keeps
	// all.
	Corpus string
	// IDs keeps dense ids, spaced ones, or (AnyIDs) both.
	IDs int
}

// Slice.IDs values.
const (
	AnyIDs = iota
	DenseIDs
	SpacedIDs
)

// Run deals the rows of the slice and checks each.
func Run(t *testing.T, slice Slice) {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	corpora := []diffCorpusSpec{
		{"mixed", diffCorpus(rng, 96, 12, 3), true},
		{"tied", diffCorpus(rng, 96, 5, 0), true},
	}
	for i := 0; i < 4; i++ {
		corpora = append(corpora, diffCorpusSpec{fmt.Sprintf("random %d", i), diffCorpus(rng, 40+rng.Intn(40), 0, 1), false})
	}
	var templated, random []diffCorpusSpec
	for _, c := range corpora {
		if !strings.HasPrefix(c.name, slice.Corpus) {
			continue
		} else if c.templated {
			templated = append(templated, c)
		} else {
			random = append(random, c)
		}
	}
	fams := diffFamilies()
	st := diffState{rankings: map[string]diffRanking{}, served: map[Topology]int{},
		cuts: map[engine.KernelSpec][2]uint64{}, cutRows: map[engine.KernelSpec]int{}, coverRows: map[engine.KernelSpec]int{}}
	for _, c := range templated {
		st.checkTemplated(t, c, fams)
	}

	var shapes []Shape
	for _, w := range []int{1, 2, 3, 5} {
		shapes = append(shapes, Shape{w, engine.ModeAND, 0}, Shape{w, engine.ModeOR, 0})
		for m := 1; m <= w; m++ {
			shapes = append(shapes, Shape{w, []engine.QueryMode{engine.ModeAND, engine.ModeOR}[m%2], m})
		}
	}
	if slice.Shapes != nil {
		shapes = slices.DeleteFunc(shapes, func(s Shape) bool { return !slice.Shapes(s) })
	}
	// A topology whose engines hold no pair list takes any shape: one
	// built without lists, or a coordinator over 2 or 4 in-process
	// shards, whose partitions carry none. (One in-process shard serves
	// the index itself, lists and all, so it is built without.) One
	// whose engines hold lists takes, in turn, the two-term AND query
	// they serve and a neighbour they must not: explicit m = n, OR, or
	// a third term.
	neighbours := []Shape{{2, engine.ModeAND, 2}, {2, engine.ModeOR, 0}, {3, engine.ModeAND, 0}}
	topos := []Topology{{}, {Tier: BuiltPairs}, {Tier: BuiltPairs}, {Shards: 1},
		{Shards: 2}, {Shards: 2, Tier: BuiltPairs}, {Shards: 4}, {Shards: 4, Tier: BuiltPairs}}
	for n := 1; n <= 3; n++ {
		topos = append(topos, Topology{true, n, NoPairs}, Topology{true, n, BuiltPairs},
			Topology{true, n, BuiltPairs}, Topology{true, n, DemandPairs}, Topology{true, n, DemandPairs})
	}
	if slice.Topologies != nil {
		topos = slices.DeleteFunc(topos, func(tp Topology) bool { return !slice.Topologies(tp) })
	}

	// Each axis deals its values in a fresh seeded order every round.
	// Family, corpus kind and cover are dealt together, so every
	// family runs at its dealt K on a templated corpus every 24 rows;
	// in three rounds of the topologies every deck runs through, the
	// shapes on the 9 of every 23 rows whose engines hold no list. A
	// slice that narrows the topologies runs a third as many rounds,
	// but at least the 24 rows that take every family, cover row and
	// not, through a corpus of each kind it keeps.
	decks, deckRNG := map[string][]int{}, rand.New(rand.NewSource(1))
	deal := func(axis string, n int) int {
		if len(decks[axis]) == 0 {
			decks[axis] = deckRNG.Perm(n)
		}
		i := decks[axis][0]
		decks[axis] = decks[axis][1:]
		return i
	}
	dealCorpus := func(axis string, cs []diffCorpusSpec) diffCorpusSpec {
		if len(cs) == 0 {
			return diffCorpusSpec{}
		}
		return cs[deal(axis, len(cs))]
	}
	rows := 3 * len(topos)
	if !testing.Short() {
		rows = 13 * len(topos)
	}
	if slice.Topologies != nil {
		rows = max(rows/3, 4*len(fams))
	}
	for i := 0; i < rows; i++ {
		core, topo := deal("family, corpus kind, cover", 4*len(fams)), deal("topology", len(topos))
		r := diffRow{
			fam: fams[core%len(fams)], cover: core/len(fams)%2 == 1,
			corpus: dealCorpus("random corpus", random),
			spaced: deal("ids", 2) == 1, closure: deal("form", 2) == 1,
			workers: []int{1, 4, 8}[deal("workers", 3)],
			topo:    topos[topo],
			k:       []int{1, 5, 50, 1 + rng.Intn(12)}[deal("k", 4)],
			floor:   deal("floor", 3),
		}
		if r.cover {
			r.floor = 0 // a raised floor is a bar
		}
		if core < 2*len(fams) && len(templated) > 0 || len(random) == 0 {
			r.corpus = dealCorpus("templated corpus", templated)
		}
		if slice.IDs != AnyIDs {
			r.spaced = slice.IDs == SpacedIDs
		}
		switch {
		case r.topo.Tier == NoPairs || !r.topo.Remote && r.topo.Shards > 0:
			r.shape = shapes[deal("shape", len(shapes))]
		case topo == 0 || topos[topo-1] != r.topo: // the first of a tier's two entries
			r.shape, r.eligible = Shape{2, engine.ModeAND, 0}, true
			r.closure = r.closure && r.topo.Remote // a Join closure never reaches a list in process
		default:
			r.shape = neighbours[deal("neighbour", len(neighbours))]
		}
		if r.corpus.templated {
			r.concepts = tiedConcepts(r.fam.spec.Valid)[:min(r.shape.Width, 3)]
		}
		for len(r.concepts) < r.shape.Width {
			concept := index.Concept{}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				concept[diffVocab[rng.Intn(len(diffVocab))]] = 1 - rng.Float64()
			}
			r.concepts = append(r.concepts, concept)
		}
		st.run(t, r)
		if r.cover {
			st.coverRows[r.fam.spec]++
		} else if r.corpus.templated {
			st.cutRows[r.fam.spec]++
		}
	}

	t.Logf("pair-served passes: %v", st.served)
	for _, tier := range []Topology{{Tier: BuiltPairs}, {Remote: true, Tier: BuiltPairs}, {Remote: true, Tier: DemandPairs}} {
		dealt := slices.ContainsFunc(topos, func(tp Topology) bool {
			return tp.Remote == tier.Remote && tp.Tier == tier.Tier && (tp.Remote || tp.Shards == 0)
		})
		if dealt && st.served[tier] == 0 {
			t.Errorf("no query was served from a pair list on %+v", tier)
		}
	}
	// On the templated corpora a bare kernel's only cut is the window
	// screen, and MAX has none; every floor-aware kernel that ran there
	// at its dealt K in two rows or more cut joins. Every family runs
	// the exhaustive walk in a cover row.
	for _, f := range fams {
		cuts, window := st.cuts[f.spec][0], st.cuts[f.spec][1]
		t.Logf("%+v: %d floor cuts, %d at the window screen in %d templated rows at the dealt K; %d cover rows",
			f.spec, cuts, window, st.cutRows[f.spec], st.coverRows[f.spec])
		if st.coverRows[f.spec] == 0 {
			t.Errorf("%+v: no cover row", f.spec)
		}
		if f.spec.Family == "max" && window != 0 || !f.spec.Valid && window != cuts ||
			(f.spec.Family != "max" || f.spec.Valid) && st.cutRows[f.spec] >= 2 && cuts == 0 {
			t.Errorf("%+v: %d floor cuts, %d window cuts", f.spec, cuts, window)
		}
	}
}

// diffState remembers reference rankings, which rows over the templated
// corpora share, and sums what single rows cannot show: pair-served
// passes per tier (shards zeroed), and per family the floor and window
// cuts on the templated corpora, the rows that ran there at the dealt
// K, and the cover rows.
type diffState struct {
	rankings  map[string]diffRanking
	served    map[Topology]int
	cuts      map[engine.KernelSpec][2]uint64
	cutRows   map[engine.KernelSpec]int
	coverRows map[engine.KernelSpec]int
}

// diffRanking is refrank.Rank's answer: the ranking, and how many
// documents qualify.
type diffRanking struct {
	ranked     []refrank.Doc
	qualifying int
}

// rank ranks the row's corpus with the row's kernel or, when naive,
// with internal/naive.
func (st *diffState) rank(r diffRow, compact *index.Compact, concepts []index.Concept, m int, naive bool) diffRanking {
	key := fmt.Sprint(r.corpus.name, r.spaced, r.fam.spec, naive, m, concepts)
	if got, ok := st.rankings[key]; ok {
		return got
	}
	join := r.fam.naive
	if !naive {
		factory, _ := r.fam.spec.Factory()
		join = refrank.Kernel(factory())
	}
	ranked, qualifying := refrank.Rank(compact, concepts, m, join)
	st.rankings[key] = diffRanking{ranked, qualifying}
	return st.rankings[key]
}

// checkTemplated holds a templated corpus to what it is for: for every
// family over its tiedConcepts the k-th score is tied at at least 4 of
// 9 cut-offs (AND, OR and 2-of-3 at K 1, 5 and 50), and for the valid
// families at least a fifth of the joins have a duplicate-unaware
// optimum that reuses a token.
func (st *diffState) checkTemplated(t *testing.T, c diffCorpusSpec, fams []diffFamily) {
	compact := buildDiffIndex(c.docs, false)
	for i, f := range fams {
		concepts, ties := tiedConcepts(f.spec.Valid), 0
		for _, m := range []int{3, 1, 2} {
			ranked := st.rank(diffRow{corpus: c, fam: f}, compact, concepts, m, false).ranked
			for _, k := range []int{1, 5, 50} {
				if k < len(ranked) && ranked[k-1].Score == ranked[k].Score {
					ties++
				}
			}
		}
		if ties < 4 {
			t.Fatalf("%s %+v: the k-th score is tied at only %d of 9 cut-offs", c.name, f.spec, ties)
		}
		if !f.spec.Valid {
			continue
		}
		optima, dups := st.rank(diffRow{corpus: c, fam: fams[i-3]}, compact, concepts, 3, true), 0
		for _, o := range optima.ranked {
			if !o.Set.Valid() {
				dups++
			}
		}
		if 5*dups < optima.qualifying {
			t.Fatalf("%s %+v: %d of %d joins carry a duplicate, want a fifth", c.name, f.spec, dups, optima.qualifying)
		}
	}
}

// buildDiffIndex indexes document d at id d, or at d·wideStride when
// spaced.
func buildDiffIndex(docs []string, spaced bool) *index.Compact {
	ix := index.New()
	for d, body := range docs {
		if spaced {
			d *= wideStride
		}
		ix.AddText(d, body)
	}
	return ix.Compact()
}

// run builds the row's topology over a fresh index and checks both of
// its passes.
func (st *diffState) run(t *testing.T, r diffRow) {
	t.Helper()
	compact := buildDiffIndex(r.corpus.docs, r.spaced)
	m := r.shape.MinMatch
	if m == 0 && r.shape.Mode == engine.ModeOR {
		m = 1
	} else if m == 0 {
		m = len(r.concepts)
	}
	srv := startDiffServer(t, r, compact)
	defer srv.close()
	health := srv.Health()
	concepts := r.concepts
	for pass := 0; pass < 2; pass++ {
		label := fmt.Sprintf("%v pass %d", r, pass)
		ref, k := st.rank(r, compact, concepts, m, false), r.k
		if r.cover {
			k = max(k, ref.qualifying)
		}
		q := engine.Query{Concepts: concepts, K: k, Mode: r.shape.Mode, MinMatch: r.shape.MinMatch, Spec: r.fam.spec}
		if r.closure {
			q.Join, _ = r.fam.spec.Factory()
			if !r.topo.Remote {
				q.Spec = engine.KernelSpec{} // a remote fleet ships the Spec
			}
		}
		done, raiser := make(chan struct{}), sync.WaitGroup{}
		if r.floor > 0 && r.k <= len(ref.ranked) {
			floor, g := engine.NewGlobalFloor(), ref.ranked[r.k-1].Score
			if q.Floor = floor; r.floor == 1 || r.topo.Remote { // the wire carries the floor as sent
				floor.Raise(g)
			} else {
				raiser.Add(1)
				go func() {
					defer raiser.Done()
					for floor.Load() == math.Inf(-1) {
						select {
						case <-done:
							return
						default:
							runtime.Gosched()
						}
					}
					floor.Raise(g)
				}()
			}
		}
		before := srv.Stats()
		got, err := srv.Search(context.Background(), q)
		close(done)
		raiser.Wait()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		after := srv.Stats()
		var naive []refrank.Doc
		if r.corpus.templated && len(concepts) <= 3 {
			naive = st.rank(r, compact, concepts, m, true).ranked
		}
		checkRanking(t, label, got, ref.ranked[:min(k, len(ref.ranked))], naive, r.fam)
		if got.Candidates > ref.qualifying || r.cover && got.Candidates != ref.qualifying || got.Candidates < len(got.Docs) {
			t.Fatalf("%s: %d candidates, %d documents qualify, %d returned", label, got.Candidates, ref.qualifying, len(got.Docs))
		}

		d := tallyDelta(after.Tally, before.Tally)
		served := 0
		if r.eligible && (r.topo.Tier == BuiltPairs || pass == 1) {
			served = srv.listed
		}
		var rollup uint64
		for _, s := range after.Shards {
			rollup += s.PairServed
		}
		if d.PairServed != uint64(served) || d.PairHits != d.PairServed || after.Shards != nil && rollup != after.PairServed {
			t.Fatalf("%s: %d pair lookups served %d queries (the shards count %d of %d), want %d",
				label, d.PairHits, d.PairServed, rollup, after.PairServed, served)
		}
		if served > 0 {
			st.served[Topology{Remote: r.topo.Remote, Tier: r.topo.Tier}]++
		}
		// A pair-served query counts in none of the walk's counters.
		if served == 0 && (d.PrunedDocs != uint64(got.Pruned) || d.UnionCandidates != uint64(got.Candidates)) ||
			served == srv.shards && d.PrunedDocs+d.UnionCandidates+d.JoinsRun != 0 {
			t.Fatalf("%s: Stats count %d candidates and %d pruned, the result %d and %d (%d of %d shards pair-served)",
				label, d.UnionCandidates, d.PrunedDocs, got.Candidates, got.Pruned, served, srv.shards)
		}
		if r.cover && d.PivotSkips+d.PrunedDocs+d.FloorCutJoins+uint64(got.Pruned) != 0 ||
			d.WindowCutJoins > d.FloorCutJoins || d.FloorCutJoins > d.JoinsRun {
			t.Fatalf("%s: %d skips, %d (%d) pruned; %d window cuts, %d floor cuts of %d joins",
				label, d.PivotSkips, d.PrunedDocs, got.Pruned, d.WindowCutJoins, d.FloorCutJoins, d.JoinsRun)
		}
		if r.corpus.templated {
			c := st.cuts[r.fam.spec]
			st.cuts[r.fam.spec] = [2]uint64{c[0] + d.FloorCutJoins, c[1] + d.WindowCutJoins}
		}

		if pass == 0 && srv.pending > 0 {
			for range srv.pending {
				select {
				case lists := <-srv.built:
					srv.listed += min(lists, 1)
				case <-time.After(30 * time.Second):
					t.Fatalf("%s: background pair builds never finished", label)
				}
			}
			if h := srv.Health(); !reflect.DeepEqual(h, health) {
				t.Fatalf("%s: attaching pair lists moved the fleet's health: %+v → %+v", label, health, h)
			}
		}
		concepts = slices.Clone(concepts)
		slices.Reverse(concepts)
	}
}

// scoreULPs is the bound internal/join pins on a kernel's distance from
// internal/naive, and from its witness re-scored.
const scoreULPs = 31

// checkRanking holds a healthy answer to the reference: complete and
// accounted for, and bitwise the same documents, scores and witnesses,
// each witness valid when the spec is. Given naive's ranking, the
// documents and scores are its too, and each witness re-scores to its
// score exactly; else within scoreULPs.
func checkRanking(t *testing.T, label string, got *engine.Result, want, naive []refrank.Doc, fam diffFamily) {
	t.Helper()
	if got.Partial || got.Degraded || got.Evaluated < 0 || got.Pruned < 0 || got.Failed != 0 ||
		got.Evaluated+got.Pruned != got.Candidates {
		t.Fatalf("%s: Partial %v Degraded %v, %d evaluated + %d pruned + %d failed of %d candidates",
			label, got.Partial, got.Degraded, got.Evaluated, got.Pruned, got.Failed, got.Candidates)
	}
	if len(got.Docs) != len(want) || naive != nil && len(naive) < len(want) {
		t.Fatalf("%s: %d documents, the reference ranks %d (naive %d)\ngot:  %+v\nwant: %+v",
			label, len(got.Docs), len(want), len(naive), got.Docs, want)
	}
	for i, w := range want {
		g := got.Docs[i]
		same := g.Doc == w.Doc && math.Float64bits(g.Score) == math.Float64bits(w.Score) && len(g.Set) == len(w.Set)
		for j := 0; same && j < len(g.Set); j++ {
			same = g.Set[j].Loc == w.Set[j].Loc && math.Float64bits(g.Set[j].Score) == math.Float64bits(w.Set[j].Score)
		}
		if naive != nil && (naive[i].Doc != g.Doc || math.Float64bits(naive[i].Score) != math.Float64bits(g.Score)) {
			t.Fatalf("%s: rank %d is %+v, internal/naive ranks doc %d score %v", label, i, g, naive[i].Doc, naive[i].Score)
		}
		score := fam.score(g.Set)
		ulps := math.Abs(score-g.Score) / (math.Nextafter(g.Score, math.Inf(1)) - g.Score)
		if !same || ulps > scoreULPs || naive != nil && ulps != 0 || fam.spec.Valid && !g.Set.Valid() {
			t.Fatalf("%s: rank %d is %+v, re-scored %v, the reference's %+v", label, i, g, score, w)
		}
	}
}

// tallyDelta returns after − before, field by field.
func tallyDelta(after, before engine.Tally) engine.Tally {
	a, b := reflect.ValueOf(&after).Elem(), reflect.ValueOf(before)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetUint(a.Field(i).Uint() - b.Field(i).Uint())
	}
	return after
}

// diffServer is a row's searcher, with what its pair tier holds.
type diffServer struct {
	engine.Searcher
	shards  int      // engines behind it
	listed  int      // how many of them hold the query's pair list
	pending int      // on demand: the background builds the first pass starts
	built   chan int // their lists, one send per build
	close   func()
}

// startDiffServer builds the row's topology over compact, with its
// pair tier for the row's spec and concepts.
func startDiffServer(t *testing.T, r diffRow, compact *index.Compact) *diffServer {
	t.Helper()
	cfg := engine.Config{Workers: r.workers}
	srv := &diffServer{shards: max(r.topo.Shards, 1), close: func() {}}
	if !r.topo.Remote {
		var err error
		if r.topo.Tier == BuiltPairs {
			if srv.listed, err = engine.BuildPairIndex(compact, r.concepts, r.fam.spec, 0); err != nil {
				t.Fatal(err)
			}
		}
		if srv.Searcher = engine.New(compact, cfg); r.topo.Shards > 0 {
			srv.listed = 0 // no partition of 2 or 4 shards carries a list
			srv.Searcher, err = shard.New(compact, shard.Config{Shards: r.topo.Shards, Engine: cfg})
		}
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	parts, err := compact.Partition(r.topo.Shards)
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.PlanPairs(compact, r.concepts)
	if r.topo.Tier == DemandPairs && plan.Len() > 0 {
		srv.pending = len(parts)
	}
	srv.built = make(chan int, len(parts))
	addrs := make([]string, len(parts))
	var servers []*httptest.Server
	for i, p := range parts {
		if r.topo.Tier == BuiltPairs {
			n, err := engine.BuildPairPlan(p, plan, r.fam.spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			srv.listed += min(n, 1)
		}
		e := engine.New(p, cfg)
		if r.topo.Tier == DemandPairs {
			e.SetPairPlan(plan, 0, func(spec engine.KernelSpec, lists int, err error) {
				if err != nil || spec != r.fam.spec {
					t.Errorf("a background build for %+v: %d lists, %v", spec, lists, err)
				}
				srv.built <- lists
			})
		}
		mux := http.NewServeMux()
		remote.NewServer(e).Register(mux)
		servers = append(servers, httptest.NewServer(mux))
		addrs[i] = servers[i].URL
	}
	fleet, err := remote.NewFleet(addrs,
		remote.ShardConfig{Timeout: 2 * time.Minute, Retries: -1, HedgeAfter: -1, Backoff: time.Millisecond}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Searcher = fleet
	srv.close = func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return srv
}
