package lexicon_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"

	"unify/internal/corpus"
	"unify/internal/lexicon"
	"unify/internal/tokenizer"
)

// The reference implementations below are the per-word loops the package
// used before the vocabulary was compiled: every indicator word tested on
// its own against the text's terms. They restate the hit definition from
// scratch (rune-loop tokenizer, suffix stemmer, one ContainsTerm per word)
// and the differential tests hold Scan and everything built on it to them.

func refTokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

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

// refTerms remembers the last text's terms: the references ask for them
// once per indicator word, which is the cost this package no longer pays
// and the tests need not pay either.
var lastText, lastTerms = "", []string(nil)

func refTerms(text string) []string {
	if text == lastText && lastTerms != nil {
		return lastTerms
	}
	out := []string{}
	for _, t := range refTokenize(text) {
		if !tokenizer.IsStopword(t) {
			out = append(out, refStem(t))
		}
	}
	lastText, lastTerms = text, out
	return out
}

func refContainsTerm(text, word string) bool {
	target := refStem(strings.ToLower(word))
	for _, t := range refTerms(text) {
		if t == target {
			return true
		}
	}
	return false
}

func refNames(class string) []string {
	var out []string
	for _, c := range lexicon.All() {
		if c.Class == class {
			out = append(out, c.Name)
		}
	}
	sort.Strings(out)
	return out
}

func refMatch(text, name string, minHits int) bool {
	c, ok := lexicon.Lookup(name)
	if !ok {
		return refContainsTerm(text, name)
	}
	if minHits <= 0 {
		minHits = 1
	}
	hits := 0
	for _, w := range c.Words {
		if refContainsTerm(text, w) {
			hits++
			if hits >= minHits {
				return true
			}
		}
	}
	return false
}

func refBestConcept(text, class string) string {
	best, bestHits := "", 0
	for _, name := range refNames(class) {
		c, _ := lexicon.Lookup(name)
		hits := 0
		for _, w := range c.Words {
			if refContainsTerm(text, w) {
				hits++
			}
		}
		if hits > bestHits {
			best, bestHits = name, hits
		}
	}
	return best
}

// refCount is the number of the concept's indicator words in the text.
func refCount(text, name string) int {
	c, _ := lexicon.Lookup(name)
	hits := 0
	for _, w := range c.Words {
		if refContainsTerm(text, w) {
			hits++
		}
	}
	return hits
}

// refEvoked is the simulated model's former conceptHits: each indicator
// word is put to Match as if it were a concept name.
func refEvoked(text, name string) int {
	c, ok := lexicon.Lookup(name)
	if !ok {
		return 0
	}
	hits := 0
	for _, w := range c.Words {
		if refMatch(text, w, 1) {
			hits++
		}
	}
	return hits
}

func classes() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range lexicon.All() {
		if !seen[c.Class] {
			seen[c.Class] = true
			out = append(out, c.Class)
		}
	}
	return append(out, "no-such-class")
}

// agree checks every lexicon judgment on one text against the references.
func agree(t *testing.T, text string, minHits ...int) {
	t.Helper()
	hits := lexicon.Scan(text)
	for _, c := range lexicon.All() {
		for _, minHits := range minHits {
			if got, want := lexicon.Match(text, c.Name, minHits), refMatch(text, c.Name, minHits); got != want {
				t.Fatalf("Match(%q, %s, %d) = %v, reference %v", text, c.Name, minHits, got, want)
			}
		}
		if got, want := hits.Count(c.Name), refCount(text, c.Name); got != want {
			t.Fatalf("Count(%s) on %q = %d, reference %d", c.Name, text, got, want)
		}
		if got, want := hits.Evoked(c.Name), refEvoked(text, c.Name); got != want {
			t.Fatalf("Evoked(%s) on %q = %d, reference %d", c.Name, text, got, want)
		}
	}
	for _, class := range classes() {
		want := refBestConcept(text, class)
		if got := lexicon.BestConcept(text, class); got != want {
			t.Fatalf("BestConcept(%q, %s) = %q, reference %q", text, class, got, want)
		}
		if got := hits.Best(class); got != want {
			t.Fatalf("Best(%s) on %q = %q, reference %q", class, text, got, want)
		}
	}
	// Unknown names take the bare-word test.
	for _, name := range []string{"quasars", "Goal", " overs ", "fly-half", ""} {
		if got, want := lexicon.Match(text, name, 1), refMatch(text, name, 1); got != want {
			t.Fatalf("Match(%q, %q, 1) = %v, reference %v", text, name, got, want)
		}
	}
}

func TestScanMatchesPerWordReferenceOnCorpora(t *testing.T) {
	size := 300
	if testing.Short() {
		size = 60
	}
	for _, name := range corpus.Names() {
		ds, err := corpus.GenerateN(name, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds.Docs {
			agree(t, d.Text, 1, 2)
		}
	}
}

func TestScanMatchesPerWordReferenceOnEdgeTexts(t *testing.T) {
	var everyWord, shouted []string
	for _, c := range lexicon.All() {
		everyWord = append(everyWord, c.Words...)
		shouted = append(shouted, strings.ToUpper(c.Words[1])+"s")
	}
	for _, text := range []string{
		"",
		"nothing sporty here",
		strings.Join(everyWord, " "),
		strings.Join(shouted, ", "),
		"goal goal goal GOALS baseline penalty career theory hardware founded charter defined framework",
		"bowled two overs; the fly-half kicked. Q-learning, fair-use, data-protection & peer-review.",
		"naïve goalkeepers — ÉCOLE penalties… \xff injuries",
	} {
		agree(t, text, -1, 0, 1, 2, 3, 17)
	}
}

func FuzzLexiconScan(f *testing.F) {
	f.Add("The goalkeeper committed a penalty during the football match.")
	f.Add("MiXeD CaSe Injuries, 42 sprains & 3 FRACTURES")
	f.Add("naïve café ÉCOLE penalties İstanbul ٣٤ wickets")
	f.Add("two overs, a fly-half, q-learning\x00\xff")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		agree(t, text, 0, 1, 2, 3)
	})
}

// TestDeadIndicatorWords pins the six indicator words that cannot hit as
// written: Scan never sees a stop word or a token with a hyphen in it, so
// no text containing exactly these words sets their bit. The compiled
// vocabulary must reproduce that rather than quietly start matching them
// (documents, answers and goldens would move); reviving one is a change
// to make on purpose, here first.
func TestDeadIndicatorWords(t *testing.T) {
	want := []string{"cricket/over", "rugby/fly-half", "reinforcement-learning/q-learning",
		"copyright/fair-use", "privacy/data-protection", "research/peer-review"}
	var got []string
	for _, c := range lexicon.All() {
		for _, w := range c.Words {
			toks := tokenizer.Tokenize(w)
			if tokenizer.IsStopword(w) || len(toks) != 1 || toks[0] != w {
				got = append(got, c.Name+"/"+w)
				hits := lexicon.Scan("we discussed " + w + " at length")
				if n := hits.Count(c.Name); n != 0 {
					t.Errorf("dead word %q now hits %s (%d)", w, c.Name, n)
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dead indicator words = %v, want %v", got, want)
	}
	// The stop word is dead only as written: its plural stems onto it.
	hits := lexicon.Scan("he bowled two overs")
	if hits.Count("cricket") != 1 {
		t.Error(`"overs" no longer reaches cricket's "over"`)
	}
}

// TestSharedStems pins that a stem may serve two concepts: both get the hit.
func TestSharedStems(t *testing.T) {
	owners := map[string]map[string]bool{}
	for _, c := range lexicon.All() {
		for _, w := range c.Words {
			stem := tokenizer.Stem(w)
			if owners[stem] == nil {
				owners[stem] = map[string]bool{}
			}
			owners[stem][c.Name] = true
		}
	}
	shared := 0
	for stem, cs := range owners {
		if len(cs) < 2 {
			continue
		}
		shared++
		hits := lexicon.Scan(stem)
		for name := range cs {
			if hits.Count(name) == 0 {
				t.Errorf("stem %q is shared by %v but misses %s", stem, cs, name)
			}
		}
	}
	if shared != 10 {
		t.Errorf("%d stems shared between concepts, the vocabulary had 10", shared)
	}
}

func TestScanAllocatesNothingOnASCII(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 8)
	if err != nil {
		t.Fatal(err)
	}
	var sink lexicon.Hits
	for _, d := range ds.Docs {
		text := d.Text
		if allocs := testing.AllocsPerRun(50, func() { sink = lexicon.Scan(text) }); allocs != 0 {
			t.Errorf("Scan allocates %v times on %q", allocs, text)
		}
	}
	_ = sink
}

var benchHits lexicon.Hits

func BenchmarkLexiconScan(b *testing.B) {
	ds, err := corpus.GenerateN("sports", 16)
	if err != nil {
		b.Fatal(err)
	}
	bytes := 0
	for _, d := range ds.Docs {
		bytes += len(d.Text)
	}
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds.Docs {
			benchHits = lexicon.Scan(d.Text)
		}
	}
}
