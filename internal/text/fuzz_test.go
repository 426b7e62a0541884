package text

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzStem ensures the stemmer never panics, never lengthens a word,
// and is deterministic.
func FuzzStem(f *testing.F) {
	for _, w := range []string{"", "a", "running", "caresses", "Stonehenge", "ponies", "ééé", "日本語", "x1y2"} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, word string) {
		s1 := Stem(word)
		s2 := Stem(word)
		if s1 != s2 {
			t.Fatalf("Stem(%q) nondeterministic: %q vs %q", word, s1, s2)
		}
		if len(s1) > len(word) {
			t.Fatalf("Stem(%q) = %q grew the word", word, s1)
		}
	})
}

// referenceTokenize is the rune-by-rune tokenizer Scan replaced, kept
// as the rule Scan is held to: a token is a maximal run of letters or
// digits, each rune lower-cased, numbered from 0.
func referenceTokenize(doc string) []Token {
	var out []Token
	var b strings.Builder
	pos := 0
	flush := func() {
		if b.Len() > 0 {
			out = append(out, Token{Word: b.String(), Pos: pos})
			pos++
			b.Reset()
		}
	}
	for _, r := range doc {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
			continue
		}
		flush()
	}
	flush()
	return out
}

// scanTokens collects Scan's tokens, each word copied.
func scanTokens(doc string) []Token {
	var out []Token
	Scan(doc, func(word []byte, pos int) { out = append(out, Token{Word: string(word), Pos: pos}) })
	return out
}

// FuzzTokenize holds Scan, and Tokenize over it, to the rune-by-rune
// reference on every input — so Scan's ASCII bytes can never drift from
// the Unicode rule — and checks that tokens are non-empty, lower-case
// letters and digits, with sequential positions.
func FuzzTokenize(f *testing.F) {
	f.Add("hello, world! 42")
	f.Add("")
	f.Add("...!!!")
	f.Add("ALL CAPS and MiXeD 日本語 text")
	f.Add("ÉCOLE Straße İstanbul ΣΊΣΥΦΟΣ ٣٤ x\xffy\xc3")
	f.Add("a\u00a0b\u2003c\u0301d\ufffde")
	f.Fuzz(func(t *testing.T, doc string) {
		want := referenceTokenize(doc)
		if got := scanTokens(doc); !slices.Equal(got, want) {
			t.Fatalf("Scan(%q) = %q, want %q", doc, got, want)
		}
		toks := Tokenize(doc)
		if !slices.Equal(toks, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", doc, toks, want)
		}
		for i, tok := range toks {
			if tok.Word == "" {
				t.Fatal("empty token")
			}
			if tok.Pos != i {
				t.Fatalf("token %d has position %d", i, tok.Pos)
			}
			for _, r := range tok.Word {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains separator rune %q", tok.Word, r)
				}
				// Lower-cased means a fixed point of ToLower (some
				// uppercase letters have no lowercase form and map to
				// themselves).
				if r != unicode.ToLower(r) {
					t.Fatalf("token %q not lower-cased", tok.Word)
				}
			}
		}
	})
}
