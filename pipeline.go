package bestjoin

import (
	"math/rand"

	"bestjoin/internal/gazetteer"
	"bestjoin/internal/lexicon"
	"bestjoin/internal/matcher"
	"bestjoin/internal/scorefn"
	"bestjoin/internal/text"
)

// Token is one word occurrence of a tokenized document.
type Token = text.Token

// Document is a tokenized document ready for matching.
type Document struct {
	Tokens []Token
}

// NewDocument tokenizes raw text (lower-cased words at sequential
// token positions).
func NewDocument(body string) Document {
	return Document{Tokens: text.Tokenize(body)}
}

// Stem returns the Porter stem of a word — the normalization every
// matcher applies before comparing words.
func Stem(word string) string { return text.Stem(word) }

// Matcher finds and scores all occurrences matching one query term.
type Matcher = matcher.Matcher

// MatchQuery runs one matcher per query term over the document and
// returns the join instance.
func (d Document) MatchQuery(matchers ...Matcher) MatchLists {
	return matcher.Compile(d.Tokens, matchers)
}

// Lexicon is a lexical graph scoring fuzzy matches by graph distance
// (1 − 0.3·d for distance d ≤ 3, the paper's WordNet rule).
type Lexicon = lexicon.Graph

// NewLexicon returns an empty lexical graph; AddEdge/AddSynonyms build
// it up.
func NewLexicon() *Lexicon { return lexicon.NewGraph() }

// BuiltinLexicon returns the embedded lexical graph covering the
// vocabulary of the paper's experiments (the WordNet substitute).
func BuiltinLexicon() *Lexicon { return lexicon.Builtin() }

// Gazetteer answers is-this-a-place lookups.
type Gazetteer = gazetteer.Gazetteer

// NewGazetteer builds a gazetteer from place names.
func NewGazetteer(places ...string) *Gazetteer { return gazetteer.New(places...) }

// BuiltinGazetteer returns the embedded place table (the GeoWorldMap
// substitute).
func BuiltinGazetteer() *Gazetteer { return gazetteer.Builtin() }

// NewExactMatcher matches tokens with the same Porter stem as word,
// scoring 1.
func NewExactMatcher(word string) Matcher { return matcher.Exact{Word: word} }

// NewLexicalMatcher matches tokens within 3 graph edges of word,
// scoring 1 − 0.3·distance.
func NewLexicalMatcher(word string, g *Lexicon) Matcher {
	return matcher.Lexical{Word: word, Graph: g}
}

// NewPhraseMatcher matches a multi-word name: full in-order
// occurrences score 1; lone occurrences of head (if non-empty) score
// headScore.
func NewPhraseMatcher(name string, words []string, head string, headScore float64) Matcher {
	return matcher.Phrase{Name: name, Words: words, Head: head, FullScore: 1, HeadScore: headScore}
}

// NewDateMatcher matches month names and years in [1990, 2010] with
// score 1 (the paper's DBWorld date matcher).
func NewDateMatcher() Matcher { return matcher.Date{} }

// NewPlaceMatcher matches gazetteer places with score 1 and direct
// lexical neighbours of "place" with score 0.7 (the paper's DBWorld
// place matcher).
func NewPlaceMatcher(gz *Gazetteer, g *Lexicon) Matcher {
	return matcher.Place{Gazetteer: gz, Graph: g}
}

// NewUnionMatcher merges several matchers for one query term (e.g.
// conference|workshop), keeping the best score per location.
func NewUnionMatcher(name string, ms ...Matcher) Matcher {
	return matcher.Union{Name: name, Matchers: ms}
}

// CheckWIN probes a custom WIN scoring function against the
// monotonicity and optimal-substructure contract of the paper's
// Definition 3 on n randomized inputs, returning the first violation
// found. Run it in your tests when implementing a WIN instance;
// BestWIN's correctness depends on the contract.
func CheckWIN(fn WIN, terms, n int, seed int64) error {
	return scorefn.CheckWIN(fn, terms, n, rand.New(rand.NewSource(seed)))
}

// CheckMED probes a custom MED scoring function against Definition 5.
func CheckMED(fn MED, terms, n int, seed int64) error {
	return scorefn.CheckMED(fn, terms, n, rand.New(rand.NewSource(seed)))
}

// CheckMAX probes a custom MAX scoring function against Definition 7,
// and CheckAtMostOneCrossing (below) against the Definition 8 property
// BestMAX additionally requires.
func CheckMAX(fn MAX, terms, n int, seed int64) error {
	return scorefn.CheckMAX(fn, terms, n, rand.New(rand.NewSource(seed)))
}

// CheckAtMostOneCrossing numerically probes the at-most-one-crossing
// property over the integer location range [lo, hi].
func CheckAtMostOneCrossing(fn MAX, terms, n, lo, hi int, seed int64) error {
	return scorefn.CheckAtMostOneCrossing(fn, terms, n, lo, hi, rand.New(rand.NewSource(seed)))
}

// CheckCapWIN probes fn's score caps — the bounds lossless pruning
// compares with the top-k floor — on n randomized instances: each cap
// must dominate every matchset it covers (all the lists, any subset of
// at least m of them, every matchset at least the smallest window wide,
// and every matchset at pairwise-distinct locations, the valid ones) and
// be tight when every list's best match shares one location, or sits
// next to the others for the distinct-location cap.
// Run it alongside CheckWIN when implementing a WIN instance. A
// function whose G does not depend on the term index may declare so
// with a TermExchangeable() method, which lets disjunctive queries
// prune; see DESIGN.md "Score-upper-bound pruning".
func CheckCapWIN(fn WIN, terms, n int, seed int64) error {
	return scorefn.CheckCapWIN(fn, terms, n, rand.New(rand.NewSource(seed)))
}

// CheckCapMED is CheckCapWIN for MED functions.
func CheckCapMED(fn MED, terms, n int, seed int64) error {
	return scorefn.CheckCapMED(fn, terms, n, rand.New(rand.NewSource(seed)))
}

// CheckCapMAX is CheckCapWIN for MAX functions, which have no window
// cap.
func CheckCapMAX(fn MAX, terms, n int, seed int64) error {
	return scorefn.CheckCapMAX(fn, terms, n, rand.New(rand.NewSource(seed)))
}
