package nlcond

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"unify/internal/corpus"
)

// The regexes ExtractField ran before it became a hand-written scanner,
// kept as the definition of what it must return.
var (
	reViews  = regexp.MustCompile(`(?mi)^Views:\s*(\d+)`)
	reScore  = regexp.MustCompile(`(?mi)^Score:\s*(-?\d+)`)
	rePosted = regexp.MustCompile(`(?mi)^Posted:\s*(\d{4})`)
)

func refExtractField(text, field string) (float64, bool) {
	var m []string
	switch canonField(field) {
	case "views":
		m = reViews.FindStringSubmatch(text)
	case "score":
		m = reScore.FindStringSubmatch(text)
	case "year":
		m = rePosted.FindStringSubmatch(text)
	default:
		return 0, false
	}
	if m == nil {
		return 0, false
	}
	v, err := strconv.Atoi(m[1])
	if err != nil {
		return 0, false
	}
	return float64(v), true
}

var extractFields = []string{"views", "View", "score", "upvotes", "points", "year", "Years", "posted", "nonsense", ""}

func checkExtractField(t *testing.T, text string) {
	t.Helper()
	for _, f := range extractFields {
		got, gok := ExtractField(text, f)
		want, wok := refExtractField(text, f)
		if got != want || gok != wok {
			t.Errorf("ExtractField(%q, %q) = %v, %v; regex reference %v, %v", text, f, got, gok, want, wok)
		}
	}
}

// corpusTexts returns a few rendered documents of every corpus.
func corpusTexts(tb testing.TB, per int) []string {
	tb.Helper()
	var out []string
	for _, name := range corpus.Names() {
		ds, err := corpus.GenerateN(name, per)
		if err != nil {
			tb.Fatal(err)
		}
		for _, d := range ds.Documents() {
			out = append(out, d.Text)
		}
	}
	return out
}

// edgeFieldTexts exercise the regex semantics the scanner has to copy.
var edgeFieldTexts = []string{
	"",
	"\n",
	"Views: 12",
	"views:12",
	"VIEWS:\t\f\r 12 trailing",
	"Views:\n\n  12",               // \s* crosses line ends
	"Views:\nViews: 5",             // first line fails, second matches
	"Views: x\nScore: y\nViews: 7", // leftmost matching line wins
	"Title: a\nViews: 3\nViews: 4", // not the last
	" Views: 9",                    // ^ is a line start, not after a space
	"xViews: 9\rViews: 8",          // \r does not start a line
	"Views: 9x",                    // digits stop at the first non-digit
	"Views: -9",                    // no sign for views
	"Views: ٣",                     // \d is ASCII only
	"Views: 12",                    // \s is ASCII only
	"Views:\v12",                   // \v is not in \s
	"Viewſ: 31",                    // (?i) folds s to long s
	"ſcore: -4\nPoſted: 1999",
	"ıews: 1\nVİews: 2", // dotless / dotted i do not fold to i
	"PoKted: 2000",      // Kelvin sign folds to k, which no label has
	"Score: -12",
	"Score: --12",
	"Score: -",
	"Score: - 12",
	"Score:-0",
	"Score: +3",
	"Posted: 2016",
	"Posted: 20167",                // exactly the first four digits
	"Posted: 201\nPosted: 1987-01", // three digits is no match
	"Posted:2016Posted: 1",
	"Views: 99999999999999999999\nViews: 1", // Atoi overflow decides: ok=false
	"Views: 9223372036854775807",
	"Views: 9223372036854775808",
	"Score: -9223372036854775808",
	"Score: -9223372036854775809",
	"Views: 000000000000000000000012",
	"Views:",
	"Views: ",
	"Views: \n",
	"Views\n: 1",
	"Views: 1\xff",
	"\xffViews: 1\n\xc5Views: 2\nViews: \xc5\xbf\nview\xc5\xbf:3",
}

func TestExtractFieldMatchesRegex(t *testing.T) {
	for _, text := range edgeFieldTexts {
		checkExtractField(t, text)
	}
	for _, text := range corpusTexts(t, 150) {
		checkExtractField(t, text)
		// The same document with its header mangled a few ways.
		checkExtractField(t, strings.ToUpper(text))
		checkExtractField(t, strings.ReplaceAll(text, ": ", ":\n"))
		checkExtractField(t, "Body: "+strings.ReplaceAll(text, "\n", " "))
	}
}

func FuzzExtractField(f *testing.F) {
	for _, text := range edgeFieldTexts {
		f.Add(text)
	}
	for _, text := range corpusTexts(f, 3) {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkExtractField(t, text)
	})
}

func TestExtractFieldAllocatesNothing(t *testing.T) {
	text := corpusTexts(t, 1)[0]
	if n := testing.AllocsPerRun(100, func() {
		ExtractField(text, "views")
		ExtractField(text, "score")
		ExtractField(text, "year")
	}); n != 0 {
		t.Errorf("ExtractField allocates %v objects per three calls, want 0", n)
	}
}
