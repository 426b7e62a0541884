package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bestjoin/internal/corpus"
	"bestjoin/internal/text"
)

// referenceEncode is the two-pass posting encoder the streaming one
// replaced: count the runs, then write them. Kept as the layout the
// build is held to.
func referenceEncode(ps []Posting) []byte {
	if len(ps) == 0 {
		return nil
	}
	nDocs := 1
	for i := 1; i < len(ps); i++ {
		if ps[i].Doc != ps[i-1].Doc {
			nDocs++
		}
	}
	buf := binary.AppendUvarint(nil, uint64(nDocs))
	prevDoc := 0
	for i := 0; i < len(ps); {
		doc := ps[i].Doc
		j := i
		for j < len(ps) && ps[j].Doc == doc {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(doc-prevDoc))
		prevDoc = doc
		buf = binary.AppendUvarint(buf, uint64(j-i))
		prevPos := 0
		for _, p := range ps[i:j] {
			buf = binary.AppendUvarint(buf, uint64(p.Pos-prevPos))
			prevPos = p.Pos
		}
		i = j
	}
	return buf
}

// referenceIndex is the build the streaming encoders replaced: every
// token stemmed and appended to its stem's posting slice.
type referenceIndex map[string][]Posting

func (r referenceIndex) add(doc int, tokens []text.Token) {
	for _, t := range tokens {
		stem := text.Stem(t.Word)
		r[stem] = append(r[stem], Posting{Doc: doc, Pos: t.Pos})
	}
}

// randomBody returns a document of random fragments: words in mixed
// case, digits, non-ASCII letters and digits, and runs of separators,
// ASCII, Unicode and undecodable bytes alike; sometimes nothing.
func randomBody(rng *rand.Rand) string {
	fragments := []string{
		"river", "Rivers", "RIVER", "running", "Runs", "partner", "partnership",
		"2008", "x1y2", "École", "STRASSE", "straße", "İstanbul", "ΣΊΣΥΦΟΣ", "日本語",
		"٣٤", "१२३", "naïve", "a", "I",
		" ", "  ", ", ", "—", " ", "...", "\xff", "\xc3", "\t\n", "-",
	}
	var b strings.Builder
	for n := rng.Intn(40); n > 0; n-- {
		b.WriteString(fragments[rng.Intn(len(fragments))])
	}
	return b.String()
}

// TestBuildMatchesReference: over seeded random documents — added as
// text and as tokens, with ids repeated across calls and out of order —
// every stem's compacted bytes equal the reference encoding of the
// postings the reference build collects, and Postings reads them back.
func TestBuildMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix, ref := New(), referenceIndex{}
		sorted := seed%2 == 0 // odd seeds shuffle and repeat ids
		doc, wantDocs := 0, 0
		for n := rng.Intn(60); n > 0; n-- {
			switch {
			case sorted:
				doc += rng.Intn(3) // 0: the same id again
			default:
				doc = rng.Intn(20)
			}
			wantDocs = max(wantDocs, doc+1)
			body := randomBody(rng)
			if rng.Intn(3) == 0 {
				// Tokens with caller-chosen positions, and words the
				// tokenizer never emits.
				toks := text.Tokenize(body)
				for i := range toks {
					toks[i].Pos = rng.Intn(1000)
					if rng.Intn(4) == 0 {
						toks[i].Word = strings.ToUpper(toks[i].Word)
					}
				}
				ix.Add(doc, toks)
				ref.add(doc, toks)
				continue
			}
			ix.AddText(doc, body)
			ref.add(doc, text.Tokenize(body))
		}
		c := ix.Compact()
		if len(c.postings) != len(ref) || c.Docs() != wantDocs || ix.Docs() != wantDocs {
			t.Fatalf("seed %d: %d stems over %d docs, want %d over %d", seed, len(c.postings), c.Docs(), len(ref), wantDocs)
		}
		for stem, ps := range ref {
			want := referenceEncode(ps)
			if got := c.postings[stem]; !bytes.Equal(got, want) || !bytes.Equal(EncodePostings(ps), want) {
				t.Fatalf("seed %d, stem %q: compacted %x, EncodePostings %x, want %x", seed, stem, got, EncodePostings(ps), want)
			}
		}
	}
}

// TestLongRunsMoveTheirCount: a document with 128 or more positions of
// one stem needs a count of two or more bytes, written in front of
// positions already encoded — before and after the run has closed.
func TestLongRunsMoveTheirCount(t *testing.T) {
	for _, n := range []int{127, 128, 300, 1 << 14, 1<<14 + 5} {
		ix, ref := New(), referenceIndex{}
		for doc := 0; doc < 3; doc++ {
			body := strings.Repeat("word ", n)
			ix.AddText(doc*5, body)
			ref.add(doc*5, text.Tokenize(body))
			c := ix.Compact()
			if got, want := c.postings["word"], referenceEncode(ref["word"]); !bytes.Equal(got, want) {
				t.Fatalf("n=%d, %d docs: %d bytes, want %d", n, doc+1, len(got), len(want))
			}
		}
		if ps := ix.Postings("words"); len(ps) != 3*n || ps[len(ps)-1] != (Posting{Doc: 10, Pos: n - 1}) {
			t.Fatalf("n=%d: Postings reads back %d postings", n, len(ps))
		}
	}
}

// trecCorpus returns a small seeded corpus.GenerateTREC corpus, every
// topic's documents interleaved in id order.
func trecCorpus(docsPerTopic int, seed int64) []string {
	topics := corpus.TRECQueries()
	docs := make([]string, docsPerTopic*len(topics))
	for t, q := range topics {
		for i, d := range corpus.GenerateTREC(q, docsPerTopic, seed+int64(t)).Docs {
			docs[i*len(topics)+t] = d.Text
		}
	}
	return docs
}

// TestBuildFileHashPinned pins the saved file of a built TREC corpus
// byte for byte: building the index straight into its compressed form
// writes the file the former build wrote.
func TestBuildFileHashPinned(t *testing.T) {
	ix := New()
	for d, body := range trecCorpus(20, 5) {
		ix.AddText(d, body)
	}
	path := filepath.Join(t.TempDir(), "trec.idx")
	if err := ix.Compact().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ff7fd9ca0e8733255b9457ed0454b920d05b1b7981c9d5e866789fa267735c59"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Fatalf("saved %d bytes: sha256 %s, want %s", len(b), got, want)
	}
}

// BenchmarkIndexBuild times the corpus build: AddText over seeded TREC
// documents, then Compact. ns/posting divides by the tokens indexed.
func BenchmarkIndexBuild(b *testing.B) {
	docs := trecCorpus(30, 11)
	postings := 0
	for _, body := range docs {
		postings += len(text.Tokenize(body))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New()
		for d, body := range docs {
			ix.AddText(d, body)
		}
		ix.Compact()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postings), "ns/posting")
}

// TestAddTextAllocCeiling: once a document's words have all been seen,
// indexing it costs no allocation of its own — no string per token, no
// tokenizer buffer, no escaping closure — only the amortized growth of
// its stems' encoded postings: about 0.4 allocations per call over
// 5000 calls.
func TestAddTextAllocCeiling(t *testing.T) {
	docs := trecCorpus(5, 11)
	ix := New()
	for d, body := range docs {
		ix.AddText(d, body)
	}
	next := len(docs)
	allocs := testing.AllocsPerRun(5000, func() {
		ix.AddText(next, docs[next%len(docs)])
		next++
	})
	if allocs >= 1 {
		t.Fatalf("AddText of seen words allocates %v per call, want below 1", allocs)
	}
}
