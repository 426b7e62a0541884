package dedup

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"bestjoin/internal/match"
	"bestjoin/internal/naive"
	"bestjoin/internal/randinst"
	"bestjoin/internal/scorefn"
	"bestjoin/internal/synth"
)

// The duplicate-avoidance search is pinned two ways over fixed-seed
// instance families chosen to stress it (high duplicate frequency,
// repeated locations inside one list, all-duplicate sets, instances
// with no valid matchset), under all four Prune/Memoize combinations
// and all three kernels:
//
//   - against naive.BestValid: same OK, a valid matchset drawn from the
//     lists, and the exhaustive optimum's score;
//   - against searchTable, recorded from the map/string-key
//     implementation this search replaced (commit 044a2dd): the summed
//     Result.Invocations — the paper's Figure 8 metric — and a digest of
//     every result's OK, score bits and matchset. Exploration order,
//     pruning and memo semantics are part of the contract, so the table
//     must reproduce digit for digit.
//
// DEDUP_TABLE=1 go test -run TestSearchPinned ./internal/dedup/ prints
// the table instead of checking it.

type searchRow struct {
	invocations int
	digest      uint64
}

var searchTable = map[string]searchRow{
	"alldup/max/memo":         {332, 0xf724e2735fbb536c},
	"alldup/max/plain":        {336, 0xf724e2735fbb536c},
	"alldup/max/prune":        {230, 0xf724e2735fbb536c},
	"alldup/max/prune+memo":   {230, 0xf724e2735fbb536c},
	"alldup/med/memo":         {376, 0xf0792caf452a56b2},
	"alldup/med/plain":        {383, 0xf0792caf452a56b2},
	"alldup/med/prune":        {282, 0xf0792caf452a56b2},
	"alldup/med/prune+memo":   {282, 0xf0792caf452a56b2},
	"alldup/win/memo":         {376, 0x3f6efeff3383fd51},
	"alldup/win/plain":        {383, 0x3f6efeff3383fd51},
	"alldup/win/prune":        {282, 0x3f6efeff3383fd51},
	"alldup/win/prune+memo":   {282, 0x3f6efeff3383fd51},
	"novalid/max/memo":        {312, 0x6a27b631904901dd},
	"novalid/max/plain":       {331, 0x6a27b631904901dd},
	"novalid/max/prune":       {331, 0x6a27b631904901dd},
	"novalid/max/prune+memo":  {312, 0x6a27b631904901dd},
	"novalid/med/memo":        {317, 0x6a27b631904901dd},
	"novalid/med/plain":       {345, 0x6a27b631904901dd},
	"novalid/med/prune":       {345, 0x6a27b631904901dd},
	"novalid/med/prune+memo":  {317, 0x6a27b631904901dd},
	"novalid/win/memo":        {312, 0x6a27b631904901dd},
	"novalid/win/plain":       {366, 0x6a27b631904901dd},
	"novalid/win/prune":       {366, 0x6a27b631904901dd},
	"novalid/win/prune+memo":  {312, 0x6a27b631904901dd},
	"randinst/max/memo":       {395, 0xeead1831cda5aab6},
	"randinst/max/plain":      {407, 0xeead1831cda5aab6},
	"randinst/max/prune":      {363, 0xeead1831cda5aab6},
	"randinst/max/prune+memo": {363, 0xeead1831cda5aab6},
	"randinst/med/memo":       {393, 0x3cd222ff49b8e94},
	"randinst/med/plain":      {402, 0x3cd222ff49b8e94},
	"randinst/med/prune":      {360, 0x3cd222ff49b8e94},
	"randinst/med/prune+memo": {360, 0x3cd222ff49b8e94},
	"randinst/win/memo":       {401, 0xd416b9595ace6614},
	"randinst/win/plain":      {413, 0xd416b9595ace6614},
	"randinst/win/prune":      {363, 0xd416b9595ace6614},
	"randinst/win/prune+memo": {363, 0xd416b9595ace6614},
	"synth/max/memo":          {3408, 0x93ae91470061396a},
	"synth/max/plain":         {3989, 0x93ae91470061396a},
	"synth/max/prune":         {1224, 0x93ae91470061396a},
	"synth/max/prune+memo":    {1219, 0x93ae91470061396a},
	"synth/med/memo":          {3221, 0x63e336d758faf57b},
	"synth/med/plain":         {3719, 0x63e336d758faf57b},
	"synth/med/prune":         {1248, 0x63e336d758faf57b},
	"synth/med/prune+memo":    {1229, 0x63e336d758faf57b},
	"synth/win/memo":          {2651, 0xd9fad9ca1fbdbafa},
	"synth/win/plain":         {3804, 0xd9fad9ca1fbdbafa},
	"synth/win/prune":         {1042, 0xd9fad9ca1fbdbafa},
	"synth/win/prune+memo":    {998, 0xd9fad9ca1fbdbafa},
}

var searchOptions = []struct {
	name string
	opts Options
}{
	{"plain", Options{}},
	{"prune", Options{Prune: true}},
	{"memo", Options{Memoize: true}},
	{"prune+memo", Options{Prune: true, Memoize: true}},
}

type searchKernel struct {
	name  string
	alg   Algorithm
	score func(match.Set) float64
}

func searchKernels() []searchKernel {
	win, med, max := scorefn.ExpWIN{Alpha: 0.1}, scorefn.ExpMED{Alpha: 0.1}, scorefn.SumMAX{Alpha: 0.1}
	return []searchKernel{
		{"win", winAlg(win), func(s match.Set) float64 { return scorefn.ScoreWIN(win, s) }},
		{"med", medAlg(med), func(s match.Set) float64 { return scorefn.ScoreMED(med, s) }},
		{"max", maxAlg(max), func(s match.Set) float64 { v, _ := scorefn.ScoreMAX(max, s); return v }},
	}
}

// sharedLocLists draws `terms` lists over one shared pool of `locs`
// locations: every list holds a match at every pool location with
// probability 3/4 (at least one), so nearly every token is duplicated.
func sharedLocLists(rng *rand.Rand, terms, locs int) match.Lists {
	lists := make(match.Lists, terms)
	for j := range lists {
		for l := 0; l < locs; l++ {
			if rng.Intn(4) > 0 || l == locs-1 && len(lists[j]) == 0 {
				lists[j] = append(lists[j], match.Match{Loc: 3 * l, Score: 1 - rng.Float64()})
			}
		}
	}
	return lists
}

// searchFamilies returns the fixed-seed instance families by name.
func searchFamilies() map[string][]match.Lists {
	fams := map[string][]match.Lists{}
	rng := rand.New(rand.NewSource(7001))
	for i := 0; i < 120; i++ {
		// Ties put repeated locations inside one list, too.
		fams["randinst"] = append(fams["randinst"], randinst.Lists(rng, randinst.Config{
			Terms: 2 + rng.Intn(3), MaxPerList: 4, MaxLoc: 6, AllowTies: true,
		}))
	}
	fams["synth"] = synth.Generate(synth.Config{
		Docs: 60, DocWords: 24, Terms: 5, Matches: 20, Lambda: 0.2, ZipfS: 0.6, Seed: 7002,
	}).Docs
	rng = rand.New(rand.NewSource(7003))
	for i := 0; i < 60; i++ {
		terms := 2 + rng.Intn(2)
		fams["alldup"] = append(fams["alldup"], sharedLocLists(rng, terms, terms+rng.Intn(2)))
	}
	rng = rand.New(rand.NewSource(7004))
	for i := 0; i < 40; i++ {
		// Fewer locations than terms: no valid matchset exists.
		terms := 2 + rng.Intn(3)
		fams["novalid"] = append(fams["novalid"], sharedLocLists(rng, terms, 1+rng.Intn(terms-1)))
	}
	return fams
}

func TestSearchPinned(t *testing.T) {
	record := os.Getenv("DEDUP_TABLE") != ""
	var printed []string
	for fam, instances := range searchFamilies() {
		for _, k := range searchKernels() {
			for _, o := range searchOptions {
				key := fam + "/" + k.name + "/" + o.name
				row := searchRow{}
				digest := fnv.New64a()
				for i, lists := range instances {
					res := BestWithOptions(k.alg, lists, o.opts)
					row.invocations += res.Invocations
					fmt.Fprintf(digest, "%v %x", res.OK, math.Float64bits(res.Score))
					for _, m := range res.Set {
						fmt.Fprintf(digest, " %d:%x", m.Loc, math.Float64bits(m.Score))
					}
					checkAgainstNaive(t, fmt.Sprintf("%s #%d", key, i), res, lists, k.score)
				}
				row.digest = digest.Sum64()
				if record {
					printed = append(printed, fmt.Sprintf("\t%q: {%d, %#x},", key, row.invocations, row.digest))
				} else if want, ok := searchTable[key]; !ok || row != want {
					t.Errorf("%s: invocations %d digest %#x, recorded %d %#x", key, row.invocations, row.digest, want.invocations, want.digest)
				}
			}
		}
	}
	if record {
		sort.Strings(printed)
		fmt.Println(strings.Join(printed, "\n"))
	}
}

func checkAgainstNaive(t *testing.T, name string, res Result, lists match.Lists, score func(match.Set) float64) {
	t.Helper()
	_, wantScore, wantOK := naive.BestValid(lists, score)
	if res.OK != wantOK {
		t.Fatalf("%s: OK=%v, exhaustive OK=%v on %v", name, res.OK, wantOK, lists)
	}
	if !res.OK {
		if res.Set != nil || res.Score != 0 {
			t.Fatalf("%s: not OK but set %v score %v", name, res.Set, res.Score)
		}
		return
	}
	if len(res.Set) != len(lists) || !res.Set.Valid() {
		t.Fatalf("%s: returned invalid set %v", name, res.Set)
	}
	for j, m := range res.Set {
		found := false
		for _, lm := range lists[j] {
			found = found || lm == m
		}
		if !found {
			t.Fatalf("%s: set %v entry %d is not in its list %v", name, res.Set, j, lists[j])
		}
	}
	if math.Abs(res.Score-wantScore) > tol || math.Abs(score(res.Set)-res.Score) > tol {
		t.Fatalf("%s: score %v (set rescored %v) != exhaustive valid optimum %v\ngot %v\nlists %v",
			name, res.Score, score(res.Set), wantScore, res.Set, lists)
	}
}
