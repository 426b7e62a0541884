// The concurrent indexed query engine end-to-end: index a corpus,
// compact it, and serve multi-concept queries document-at-a-time with
// worker-pool joins, deadlines, and observability — the full
// "query + corpus → ranked answers" path.
//
// The walkthrough runs the same query cold and again (the first run
// decodes each stem's postings into plain arrays the index keeps, the
// second decodes nothing), then demonstrates a deadline-bounded query
// returning its best-so-far answer marked Partial, and finally prints
// the engine's stats snapshot.
//
//	go run ./examples/engine
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"bestjoin"
)

func main() {
	// A synthetic 2000-document corpus: filler text with three
	// concept-word groups planted at different densities.
	corpus := makeCorpus(2000)
	ix := bestjoin.NewIndex()
	for d, body := range corpus {
		ix.AddText(d, body)
	}
	compact := ix.Compact()
	fmt.Printf("indexed %d documents; compressed postings: %d bytes\n\n",
		compact.Docs(), compact.Bytes())

	eng := bestjoin.NewEngine(compact, bestjoin.EngineConfig{})
	query := bestjoin.EngineQuery{
		Concepts: []bestjoin.Concept{
			{"lenovo": 1, "dell": 0.9, "hewlett": 0.8},
			{"nba": 1, "olympics": 0.9, "basketball": 0.7},
			{"partnership": 1, "alliance": 0.8, "deal": 0.6},
		},
		Join: bestjoin.JoinMED(bestjoin.ExpMED{Alpha: 0.1}),
		K:    3,
	}

	// Cold: every stem the concepts name is decoded, once, into plain
	// arrays the index keeps.
	cold, err := eng.Search(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold query:   %d candidates evaluated in %v\n", cold.Candidates, cold.Elapsed)

	// Again: the stems are decoded already, so no posting is decoded;
	// the match lists are merged from their arrays.
	cached, err := eng.Search(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cached query: %d candidates evaluated in %v\n\n", cached.Candidates, cached.Elapsed)

	fmt.Println("top documents:")
	for rank, d := range cached.Docs {
		fmt.Printf("#%d doc %d  score %.4f  matchset %v\n", rank+1, d.Doc, d.Score, d.Set)
	}

	// A deadline-bounded query: with an already-expired context the
	// engine returns immediately with the best-so-far (here: empty)
	// answer marked Partial instead of blocking.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	partial, err := eng.Search(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeadline-bounded query: partial=%v, evaluated %d of %d candidates\n",
		partial.Partial, partial.Evaluated, partial.Candidates)

	// The observability surface: cumulative counters and the query
	// latency histogram (also available via expvar with eng.Publish).
	stats, _ := json.MarshalIndent(eng.Stats(), "", "  ")
	fmt.Printf("\nengine stats:\n%s\n", stats)
}

func makeCorpus(n int) []string {
	rng := rand.New(rand.NewSource(7))
	filler := strings.Fields("quartz ribbon saddle timber umbrella violet walnut yarn " +
		"zeppelin bottle curtain dolphin ember flute glacier helmet ivory jacket kernel lantern")
	planted := [][]string{
		{"lenovo", "dell", "hewlett"},
		{"nba", "olympics", "basketball"},
		{"partnership", "alliance", "deal"},
	}
	docs := make([]string, n)
	for d := range docs {
		words := make([]string, 100)
		for i := range words {
			words[i] = filler[rng.Intn(len(filler))]
		}
		for g, group := range planted {
			if rng.Intn(4) <= 2-g || d%7 == g {
				words[rng.Intn(len(words))] = group[rng.Intn(len(group))]
			}
		}
		docs[d] = strings.Join(words, " ")
	}
	return docs
}
