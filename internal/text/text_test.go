package text

import (
	"slices"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	toks := Tokenize("Lenovo, the PC-maker; partners with   NBA in 2008!")
	want := []string{"lenovo", "the", "pc", "maker", "partners", "with", "nba", "in", "2008"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i, w := range want {
		if toks[i].Word != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Word, w)
		}
		if toks[i].Pos != i {
			t.Errorf("token %d pos = %d", i, toks[i].Pos)
		}
	}
}

func TestTokenizeEmptyAndPunctuation(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("... --- !!!"); len(got) != 0 {
		t.Errorf("Tokenize(punct) = %v", got)
	}
}

// TestScanLendsOneBuffer: Scan hands fn a word valid for the call, so a
// word longer than the pooled buffer still arrives whole, and a scan
// whose words fit allocates nothing.
func TestScanLendsOneBuffer(t *testing.T) {
	long := strings.Repeat("Ab", 100)
	got := scanTokens("x " + long + " ÿ")
	want := []Token{{"x", 0}, {strings.ToLower(long), 1}, {"ÿ", 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("Scan = %q, want %q", got, want)
	}
	n := 0
	doc := "Lenovo, the PC-maker; partners with   NBA in 2008! Étude"
	if allocs := testing.AllocsPerRun(100, func() {
		Scan(doc, func(word []byte, pos int) { n += len(word) + pos })
	}); allocs != 0 {
		t.Fatalf("Scan allocates %v per document", allocs)
	}
}

// The examples below are from Porter's original paper and the standard
// reference vocabulary.
func TestStemKnownExamples(t *testing.T) {
	cases := map[string]string{
		// Step 1a
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// Step 1b
		"feed":      "feed",
		"agreed":    "agre",
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		"conflated": "conflat",
		"troubled":  "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// Step 1c
		"happy": "happi",
		"sky":   "sky",
		// Step 2
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		// Step 3
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		// Step 4
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"gyroscopic":  "gyroscop",
		"adjustable":  "adjust",
		"defensible":  "defens",
		"irritant":    "irrit",
		"replacement": "replac",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"homologou":   "homolog",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		// Step 5
		"probate":  "probat",
		"rate":     "rate",
		"cease":    "ceas",
		"controll": "control",
		"roll":     "roll",
		// End-to-end favourites
		"generalizations": "gener",
		"oscillators":     "oscil",
		"partnership":     "partnership",
		"partners":        "partner",
		"graduated":       "graduat",
		"building":        "build",
		"built":           "built",
		"marrying":        "marri",
		"married":         "marri",
		"conferences":     "confer",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWordsUnchanged(t *testing.T) {
	for _, w := range []string{"", "a", "is", "by"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming a stem should be stable for typical vocabulary (not a
	// guarantee of the algorithm in general, but it holds for these).
	words := []string{"run", "jump", "partner", "confer", "marri", "build"}
	for _, w := range words {
		once := Stem(w)
		if twice := Stem(once); twice != once {
			t.Errorf("Stem not stable on %q: %q then %q", w, once, twice)
		}
	}
}

func TestMeasure(t *testing.T) {
	cases := map[string]int{
		"tr": 0, "ee": 0, "tree": 0, "y": 0, "by": 0,
		"trouble": 1, "oats": 1, "trees": 1, "ivy": 1,
		"troubles": 2, "private": 2, "oaten": 2, "orrery": 2,
	}
	for w, want := range cases {
		if got := measure([]byte(w), len(w)); got != want {
			t.Errorf("measure(%q) = %d, want %d", w, got, want)
		}
	}
}
