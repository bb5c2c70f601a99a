package tokenizer

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"Views: 1523", []string{"views", "1523"}},
		{"", nil},
		{"...", nil},
		{"a-b c_d", []string{"a", "b", "c", "d"}},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTerms(t *testing.T) {
	got := Terms("The players are training for the big match")
	for _, w := range got {
		if IsStopword(w) {
			t.Errorf("Terms kept stopword %q in %v", w, got)
		}
	}
	if len(got) == 0 {
		t.Fatal("Terms dropped everything")
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"injuries": "injury",
		"matches":  "match",
		"boxes":    "box",
		"players":  "player",
		"training": "train",
		"jumped":   "jump",
		"class":    "class", // -ss protected
		"ing":      "ing",   // too short
		"bus":      "bus",   // -us protected
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnOutput(t *testing.T) {
	// Stemming a stem must not shrink below 3 characters.
	f := func(s string) bool {
		w := strings.Map(func(r rune) rune {
			if unicode.IsLetter(r) {
				return unicode.ToLower(r)
			}
			return -1
		}, s)
		if w == "" {
			return true
		}
		st := Stem(w)
		return len(st) >= 3 || len(w) <= 3 || len(st) >= len(w)-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBigrams(t *testing.T) {
	got := Bigrams([]string{"a", "b", "c"})
	want := []string{"a_b", "b_c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Bigrams = %v, want %v", got, want)
	}
	if Bigrams([]string{"solo"}) != nil {
		t.Error("single term should yield no bigrams")
	}
}

func TestContainsTerm(t *testing.T) {
	text := "The goalkeeper made three great saves yesterday"
	if !ContainsTerm(text, "goalkeeper") {
		t.Error("exact term not found")
	}
	if !ContainsTerm(text, "save") {
		t.Error("stemmed term not matched (saves -> save)")
	}
	if ContainsTerm(text, "tennis") {
		t.Error("absent term matched")
	}
}

func TestContainsAny(t *testing.T) {
	text := "discussion about marathon pacing"
	if !ContainsAny(text, []string{"sprint", "marathon"}) {
		t.Error("ContainsAny missed a present word")
	}
	if ContainsAny(text, nil) {
		t.Error("empty word list must not match")
	}
}

// TestTokenizeNeverPanics fuzzes the tokenizer with arbitrary strings.
func TestTokenizeNeverPanics(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// refStem is the stemmer as it was written before stemCut shared its
// rules with TermIter; the differential tests below hold the two together.
func refStem(w string) string {
	n := len(w)
	switch {
	case n > 4 && strings.HasSuffix(w, "ies"):
		return w[:n-3] + "y"
	case n > 4 && strings.HasSuffix(w, "sses"):
		return w[:n-2]
	case n > 4 && strings.HasSuffix(w, "shes") || n > 4 && strings.HasSuffix(w, "ches") || n > 4 && strings.HasSuffix(w, "xes"):
		return w[:n-2]
	case n > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us"):
		return w[:n-1]
	case n > 5 && strings.HasSuffix(w, "ing"):
		return w[:n-3]
	case n > 4 && strings.HasSuffix(w, "ed"):
		return w[:n-2]
	default:
		return w
	}
}

// refTerms is Terms over the rune-loop tokenizer and refStem.
func refTerms(text string) []string {
	var out []string
	for _, t := range tokenizeRunes(text) {
		if !stopwords[t] {
			out = append(out, refStem(t))
		}
	}
	return out
}

// tokenizerSamples mixes the shapes the fast paths branch on: case, digits,
// every stemmer suffix, stop words, long tokens, non-ASCII letters and
// digits, letters that lowercase into ASCII, and invalid UTF-8.
var tokenizerSamples = []string{
	"",
	"...",
	"Hello, World!",
	"UPPER lower MiXeD 42nd 1523",
	"The injuries, matches, boxes, classes, dishes and buses were trained, jumping",
	"over overs OVERS fly-half q-learning",
	strings.Repeat("Supercalifragilistic", 9) + "s",
	"naïve café ÉCOLE Ünïcödé straße",
	"İstanbul Kelvin ǅ",
	"٣٤ docs, १२ pages",
	"bad \xff\xfe bytes\xc3",
	"tab\tnew\nline\r\vform\f end",
}

func TestTokenizeFastPathMatchesRuneLoop(t *testing.T) {
	check := func(s string) bool {
		got, want := Tokenize(s), tokenizeRunes(s)
		return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
	}
	for _, s := range tokenizerSamples {
		if !check(s) {
			t.Errorf("Tokenize(%q) = %q, rune loop gives %q", s, Tokenize(s), tokenizeRunes(s))
		}
	}
	ascii := func(b []byte) bool {
		for i := range b {
			b[i] &= 0x7f
		}
		return check(string(b))
	}
	if err := quick.Check(ascii, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func iterTerms(text string) []string {
	var out []string
	it := NewTermIter(text)
	for term, ok := it.Next(); ok; term, ok = it.Next() {
		out = append(out, string(term))
	}
	return out
}

func TestTermIterMatchesTerms(t *testing.T) {
	check := func(s string) bool {
		want := refTerms(s)
		return reflect.DeepEqual(iterTerms(s), want) && reflect.DeepEqual(append([]string(nil), Terms(s)...), want)
	}
	for _, s := range tokenizerSamples {
		if !check(s) {
			t.Errorf("terms of %q: iterator %q, Terms %q, reference %q", s, iterTerms(s), Terms(s), refTerms(s))
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(b []byte) bool { return check(string(b)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStemMatchesReference(t *testing.T) {
	if err := quick.Check(func(w string) bool { return Stem(w) == refStem(w) }, nil); err != nil {
		t.Error(err)
	}
	for _, w := range tokenizeRunes(strings.Join(tokenizerSamples, " ")) {
		if Stem(w) != refStem(w) {
			t.Errorf("Stem(%q) = %q, reference %q", w, Stem(w), refStem(w))
		}
	}
}

func TestTermIterAllocatesNothingOnShortTokens(t *testing.T) {
	text := "The Goalkeeper made THREE great saves; 1523 Views, injuries and matches."
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		it := NewTermIter(text)
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			n++
		}
	})
	if allocs != 0 || n == 0 {
		t.Errorf("TermIter: %v allocs per pass over %d terms, want 0", allocs, n)
	}
}
