package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"bestjoin"
	"bestjoin/internal/corpus"
	"bestjoin/internal/engine"
	"bestjoin/internal/index"
	"bestjoin/internal/lexicon"
)

// Served kernel parameters shared by every workload: proxserve's -alpha
// default and the number of heavy stems its start-up pair selector
// considers (cmd/proxserve pairConceptCount) with its default budget.
const (
	alpha       = 0.1
	heavyStems  = 24
	padStems    = 16 // of the heavy stems, how many pad wide5 tuples
	pairBudget  = 4 << 20
	defaultDocs = 3000 // documents per TREC topic; self-tests use fewer
	defaultK    = 5    // proxserve's -k default; requests carry no k
)

// topicTerms maps each corpus.TRECQueries() topic to its single-word
// lexical query terms: multi-word matchers are cut to their head word
// and Q5's date matcher to the other half of its phrase, so every term
// goes through proxserve's lexicon expansion like a typed query would.
var topicTerms = [][]string{
	{"pisa", "began", "build", "year"},
	{"chavez", "graduate", "school", "year"},
	{"parliament", "in", "city"},
	{"country", "stonehenge", "in"},
	{"prince", "edward", "marry"},
	{"hitchcock", "born", "city"},
	{"imf", "headquarters", "city"},
}

// rareTopics are the topics whose driver term is rare (Figure 12 list
// sizes 0.1, 0.04 and 0.1 per document): few candidates, scattered over
// every block because doc ids interleave topics.
var rareTopics = []int{2, 3, 5}

// query is one request of a workload's stream.
type query struct {
	Class string   `json:"class"`
	Terms []string `json:"terms"`
	Mode  string   `json:"mode,omitempty"` // "" (AND) or "or"
	M     int      `json:"m,omitempty"`    // m-of-n threshold, 0 = mode default
}

// key identifies a distinct query; it is also the request's query string.
func (q query) key() string {
	s := "terms=" + strings.Join(q.Terms, ",")
	if q.Mode != "" {
		s += "&mode=" + q.Mode
	}
	if q.M > 0 {
		s += fmt.Sprintf("&m=%d", q.M)
	}
	return s
}

// dataset is the seeded corpus indexed and saved the way a deployment
// would hand it to proxserve -index.
type dataset struct {
	path     string
	bytes    int64
	postings int64 // corpus words indexed
	buildDur time.Duration
	heavy    []string
}

func expandConcept(lex *lexicon.Graph, term string) index.Concept {
	c := index.ConceptFromGraph(lex.Neighborhood(term, 3), lexicon.ScorePerEdge)
	if len(c) == 0 {
		c = index.Concept{term: 1}
	}
	return c
}

func expandAll(lex *lexicon.Graph, terms []string) []index.Concept {
	cs := make([]index.Concept, len(terms))
	for i, t := range terms {
		cs[i] = expandConcept(lex, t)
	}
	return cs
}

// generateCorpus returns the documents in doc-id order: doc = i*7+topic,
// so every topic spans every 128-doc block.
func generateCorpus(seed int64, docsPerTopic int) []string {
	topics := corpus.TRECQueries()
	docs := make([]string, docsPerTopic*len(topics))
	for t, q := range topics {
		ds := corpus.GenerateTREC(q, docsPerTopic, seed*1000003+int64(t))
		for i, d := range ds.Docs {
			docs[i*len(topics)+t] = d.Text
		}
	}
	return docs
}

// buildDataset generates, indexes and saves the corpus. Blocks are
// registered for the expansion of every term any workload queries:
// proxserve never registers blocks itself, so a pre-built file is the
// only way to make it serve the block path.
func buildDataset(seed int64, docsPerTopic int, path string) (*dataset, error) {
	start := time.Now()
	ix := bestjoin.NewIndex()
	var postings int64
	for d, body := range generateCorpus(seed, docsPerTopic) {
		postings += int64(len(strings.Fields(body)))
		ix.AddText(d, body)
	}
	c := ix.Compact()
	lex := bestjoin.BuiltinLexicon()
	heavy := c.HeavyStems(heavyStems)
	seen := map[string]bool{}
	for _, terms := range append(append([][]string{}, topicTerms...), heavy) {
		for _, t := range terms {
			if !seen[t] {
				seen[t] = true
				c.AddConceptBlocks(expandConcept(lex, t))
			}
		}
	}
	if err := c.SaveFile(path); err != nil {
		return nil, fmt.Errorf("save index: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &dataset{path: path, bytes: st.Size(), postings: postings, buildDur: time.Since(start), heavy: heavy}, nil
}

// loadServed loads the saved file and runs the start-up pair build
// exactly as proxserve does for the given scoring family, so the
// harness holds the same index a server process serves.
func loadServed(ds *dataset, family string) (*index.Compact, time.Duration, error) {
	start := time.Now()
	idx, err := index.LoadFile(ds.path)
	loadDur := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("load index: %w", err)
	}
	lex := bestjoin.BuiltinLexicon()
	if _, err := engine.BuildPairIndex(idx, expandAll(lex, idx.HeavyStems(heavyStems)), specFor(family), pairBudget); err != nil {
		return nil, 0, fmt.Errorf("pair build: %w", err)
	}
	return idx, loadDur, nil
}

func specFor(family string) engine.KernelSpec {
	return engine.KernelSpec{Family: family, Alpha: alpha, Valid: true}
}

// queryClasses derives the four seeded lists of distinct term tuples.
// served must carry the start-up pair lists (loadServed): pair2 is made
// of the heavy-stem pairs the selector actually registered.
func queryClasses(seed int64, served *index.Compact, family string) map[string][]query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	lex := bestjoin.BuiltinLexicon()
	heavy := served.HeavyStems(heavyStems)
	perm := func(terms []string) []string {
		out := append([]string{}, terms...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	classes := map[string][]query{}
	add := func(class string, terms []string) bool {
		q := query{Class: class, Terms: terms}
		for _, have := range classes[class] {
			if have.key() == q.key() {
				return false
			}
		}
		classes[class] = append(classes[class], q)
		return true
	}
	// Equal counts per topic keep the candidate-count mix (≈200–3000 per
	// query) the same on every seed.
	const perTopic = 4
	for t, terms := range topicTerms {
		for n := 0; n < perTopic; {
			if add("topic", perm(terms)) {
				n++
			}
		}
		// Padding stems are taken by frequency rank in a fixed pattern, so
		// every seed pads with the same spread of heavier and lighter
		// stems; a second stem sits half the range away. Only the padStems
		// heaviest are used: each fills 164 block entries of the default
		// 4096-entry match-list LRU, and warm_and's working set must fit.
		pad := heavy[:min(padStems, len(heavy))]
		for j := 0; j < perTopic && len(pad) > 1; j++ {
			wide := append([]string{}, terms...)
			for r := t*perTopic + j; len(wide) < 5; r += len(pad) / 2 {
				for !distinct(append(wide, pad[r%len(pad)])) {
					r++
				}
				wide = append(wide, pad[r%len(pad)])
			}
			for !add("wide5", perm(wide)) {
			}
		}
	}
	for _, t := range rareTopics {
		for n := 0; n < 6; { // all 3! orders
			if add("rare", perm(topicTerms[t])) {
				n++
			}
		}
	}
	// Both orders of the first registered pairs by stem rank: 7 pairs on
	// the default budget, hundreds on a tiny test corpus.
	const maxPairs = 7
	fp := specFor(family).Fingerprint()
	for i, a := range heavy {
		for _, b := range heavy[i+1:] {
			if _, ok := served.ConceptPairs(expandConcept(lex, a), expandConcept(lex, b), fp); ok && len(classes["pair2"]) < 2*maxPairs {
				add("pair2", []string{a, b})
				add("pair2", []string{b, a})
			}
		}
	}
	return classes
}

func distinct(terms []string) bool {
	seen := map[string]bool{}
	for _, t := range terms {
		if seen[t] {
			return false
		}
		seen[t] = true
	}
	return true
}
