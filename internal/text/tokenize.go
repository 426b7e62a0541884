// Package text provides the document-processing substrate for the
// paper's TREC and DBWorld experiments: a tokenizer that turns raw
// text into located tokens, and a from-scratch implementation of
// Porter's stemming algorithm, which the paper uses for all string
// comparisons ("we use the stem of a word as returned by a standard
// Porter's stemmer").
package text

import (
	"sync"
	"unicode"
	"unicode/utf8"
)

// Token is one word occurrence in a document: its normalized surface
// form (lower-cased), and its position counted in tokens from the
// start of the document — the location unit of the join algorithms.
type Token struct {
	Word string
	Pos  int
}

// Tokenize splits a document into lower-cased word tokens: Scan's
// tokens, each word copied into a string of its own.
func Tokenize(doc string) []Token {
	var out []Token
	Scan(doc, func(word []byte, pos int) {
		out = append(out, Token{Word: string(word), Pos: pos})
	})
	return out
}

// scanBufs holds the word buffers Scan lends to its callbacks, so a
// scan allocates nothing once its longest word fits.
var scanBufs = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// Scan calls fn with every token of doc, in order. A token is a
// maximal run of letters or digits (unicode.IsLetter, unicode.IsDigit),
// lower-cased rune by rune (unicode.ToLower); everything else,
// undecodable bytes included, separates tokens. Positions count tokens
// from 0, so proximity in positions corresponds to proximity in the
// text. ASCII bytes are classified and lower-cased without decoding,
// which for them is exactly the same rule. word is valid only during
// the call: fn must copy what it keeps.
func Scan(doc string, fn func(word []byte, pos int)) {
	bp := scanBufs.Get().(*[]byte)
	word, pos := (*bp)[:0], 0
	for i := 0; i < len(doc); {
		if c := doc[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
				word = append(word, c)
				continue
			case 'A' <= c && c <= 'Z':
				word = append(word, c+'a'-'A')
				continue
			}
		} else {
			r, n := utf8.DecodeRuneInString(doc[i:])
			i += n
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				word = utf8.AppendRune(word, unicode.ToLower(r))
				continue
			}
		}
		if len(word) > 0 {
			fn(word, pos)
			word, pos = word[:0], pos+1
		}
	}
	if len(word) > 0 {
		fn(word, pos)
	}
	*bp = word
	scanBufs.Put(bp)
}
