// Package nlcond parses and evaluates the natural-language filter
// conditions that appear in analytics queries ("with more than 500 views",
// "related to injuries", "involving a ball", "posted before 2015").
//
// Two consumers share it: the pre-programmed Filter implementation uses the
// *structured* conditions (numeric, year) it can evaluate exactly with
// regular expressions, and the simulated LLM backend uses the full parser —
// including concept (semantic) conditions — as its language understanding.
package nlcond

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"unify/internal/lexicon"
)

// Kind classifies a parsed condition.
type Kind int

const (
	// Invalid marks an unparseable condition.
	Invalid Kind = iota
	// Numeric compares a numeric document field against a constant.
	Numeric
	// Year compares the posting year against a constant.
	Year
	// Concept tests topical relatedness to a lexicon concept.
	Concept
	// Subset tests whether the document's dominant concept of some class
	// belongs to a named semantic subset of that class (e.g. "sports
	// involving a ball"). Concept holds the subset name. When applied to
	// a group label instead of a document, the label itself is tested.
	Subset
	// Range bounds the posting year on both sides ("posted between 2013
	// and 2017", inclusive). Value holds the lower bound, Value2 the
	// upper.
	Range
)

func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Year:
		return "year"
	case Concept:
		return "concept"
	case Subset:
		return "subset"
	case Range:
		return "range"
	default:
		return "invalid"
	}
}

// Cond is a parsed condition.
type Cond struct {
	Kind    Kind
	Field   string  // "views" or "score" for Numeric
	Op      string  // ">", ">=", "<", "<=" for Numeric/Year
	Value   float64 // threshold for Numeric/Year; lower bound for Range
	Value2  float64 // upper bound for Range
	Concept string  // lexicon concept name for Concept
}

// Structured reports whether the condition can be evaluated exactly by a
// pre-programmed implementation (no semantic understanding needed).
func (c Cond) Structured() bool {
	return c.Kind == Numeric || c.Kind == Year || c.Kind == Range
}

var (
	reNumeric = regexp.MustCompile(`(?i)\b(?:with|having|that have|have|received|show(?:ing)?)?\s*(more than|over|above|at least|no fewer than|fewer than|less than|under|below|at most|exactly)\s+(\d+)\s+(views?|upvotes?|points?|score)\b`)
	reYear    = regexp.MustCompile(`(?i)\bposted\s+(after|before|since|in)\s+(\d{4})\b`)
	reRange   = regexp.MustCompile(`(?i)\bposted\s+between\s+(\d{4})\s+and\s+(\d{4})\b`)
	reConcept = regexp.MustCompile(`(?i)\b(?:about|regarding|concerning|related to|relating to|that discuss(?:es)?|discussing|that mention(?:s)?|mentioning|on the subject of|dealing with|that concern(?:s)?|that cover(?:s)?|covering)\s+([a-z][a-z -]*?)(?:\s+(?:questions?|documents?|pages?))?$`)
)

// subsetPatterns maps lexicon subset names to surface-phrase patterns.
var subsetPatterns = []struct {
	name string
	re   *regexp.Regexp
}{
	{"ball", regexp.MustCompile(`(?i)\b(?:involv\w*|played with|using)\s+a\s+ball\b`)},
	{"teamwork", regexp.MustCompile(`(?i)\b(?:requir\w*|involv\w*|need\w*)\s+teamwork\b`)},
	{"machine-learning", regexp.MustCompile(`(?i)\b(?:related to|relating to|about|concerning)\s+machine\s+learning\b`)},
	{"money", regexp.MustCompile(`(?i)\b(?:involv\w*|related to|about)\s+money\b`)},
	{"natural-world", regexp.MustCompile(`(?i)\b(?:about|related to|concerning)\s+the\s+natural\s+world\b`)},
}

// MatchSubset reports the lexicon subset named by a surface phrase, if any.
func MatchSubset(s string) (string, bool) {
	for _, p := range subsetPatterns {
		if p.re.MatchString(s) {
			return p.name, true
		}
	}
	return "", false
}

// SubsetSpan is one subset-phrase occurrence inside a longer text.
type SubsetSpan struct {
	Start, End int
	Name       string
}

// FindSubsetSpans locates every subset phrase in s, so set-description
// scanners stay in sync with the subset grammar.
func FindSubsetSpans(s string) []SubsetSpan {
	var out []SubsetSpan
	for _, p := range subsetPatterns {
		for _, loc := range p.re.FindAllStringIndex(s, -1) {
			out = append(out, SubsetSpan{Start: loc[0], End: loc[1], Name: p.name})
		}
	}
	return out
}

func canonField(f string) string {
	f = strings.ToLower(strings.TrimSuffix(f, "s"))
	switch f {
	case "view":
		return "views"
	case "upvote", "point", "score":
		return "score"
	default:
		return f
	}
}

func canonOp(cmp string) (string, bool) {
	switch strings.ToLower(cmp) {
	case "more than", "over", "above":
		return ">", true
	case "at least", "no fewer than", "since":
		return ">=", true
	case "fewer than", "less than", "under", "below", "before":
		return "<", true
	case "at most":
		return "<=", true
	case "exactly", "in":
		return "==", true
	case "after":
		return ">", true
	default:
		return "", false
	}
}

// Parse interprets a natural-language condition string. The boolean result
// reports whether the condition was understood.
func Parse(s string) (Cond, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Cond{}, false
	}
	if m := reNumeric.FindStringSubmatch(s); m != nil {
		op, ok := canonOp(m[1])
		if !ok {
			return Cond{}, false
		}
		v, err := strconv.Atoi(m[2])
		if err != nil {
			return Cond{}, false
		}
		return Cond{Kind: Numeric, Field: canonField(m[3]), Op: op, Value: float64(v)}, true
	}
	if m := reRange.FindStringSubmatch(s); m != nil {
		lo, err1 := strconv.Atoi(m[1])
		hi, err2 := strconv.Atoi(m[2])
		if err1 != nil || err2 != nil || lo > hi {
			return Cond{}, false
		}
		return Cond{Kind: Range, Value: float64(lo), Value2: float64(hi)}, true
	}
	if m := reYear.FindStringSubmatch(s); m != nil {
		op, ok := canonOp(m[1])
		if !ok {
			return Cond{}, false
		}
		v, err := strconv.Atoi(m[2])
		if err != nil {
			return Cond{}, false
		}
		return Cond{Kind: Year, Op: op, Value: float64(v)}, true
	}
	if name, ok := MatchSubset(s); ok {
		return Cond{Kind: Subset, Concept: name}, true
	}
	if m := reConcept.FindStringSubmatch(s); m != nil {
		name := NormalizeConcept(m[1])
		return Cond{Kind: Concept, Concept: name}, true
	}
	// Bare concept name ("injury", "neural networks").
	if name := NormalizeConcept(s); name != "" {
		if _, ok := lexicon.Lookup(name); ok {
			return Cond{Kind: Concept, Concept: name}, true
		}
	}
	return Cond{}, false
}

// NormalizeConcept maps a surface phrase to a lexicon concept name:
// lowercase, trims generic nouns, tries hyphenation of multiword names and
// singular/plural variants.
func NormalizeConcept(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	for _, suffix := range []string{" questions", " question", " documents", " pages", " topics"} {
		s = strings.TrimSuffix(s, suffix)
	}
	s = strings.TrimSpace(s)
	cands := []string{s, strings.ReplaceAll(s, " ", "-")}
	if strings.HasSuffix(s, "ies") {
		cands = append(cands, s[:len(s)-3]+"y")
	}
	if strings.HasSuffix(s, "s") {
		cands = append(cands, s[:len(s)-1], strings.ReplaceAll(s[:len(s)-1], " ", "-"))
	}
	for _, c := range cands {
		if _, ok := lexicon.Lookup(c); ok {
			return c
		}
	}
	return s
}

// ExtractField pulls a numeric field ("views", "score", "year") out of a
// rendered document's text. ok is false when the field is absent.
//
// It returns what the leftmost match of `(?mi)^Views:\s*(\d+)`,
// `(?mi)^Score:\s*(-?\d+)` or `(?mi)^Posted:\s*(\d{4})` would (the test
// file keeps those regexes as the reference), scanning line starts by
// hand because structured filters run it once per document.
func ExtractField(text, field string) (float64, bool) {
	var label string
	switch field = canonField(field); field {
	case "views":
		label = "views:"
	case "score":
		label = "score:"
	case "year":
		label = "posted:"
	default:
		return 0, false
	}
	for start := 0; ; {
		if rest, ok := cutFoldPrefix(text[start:], label); ok {
			rest = strings.TrimLeft(rest, " \t\n\f\r") // \s* may run across line ends
			n := 0
			if field == "score" && strings.HasPrefix(rest, "-") {
				n = 1
			}
			digits := n
			for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
				digits++
			}
			if field == "year" {
				// Exactly the first four digits; fewer is no match.
				if digits >= 4 {
					digits = 4
				} else {
					digits = n
				}
			}
			if digits > n {
				// The leftmost match decides, even when it overflows.
				v, err := strconv.Atoi(rest[:digits])
				if err != nil {
					return 0, false
				}
				return float64(v), true
			}
		}
		nl := strings.IndexByte(text[start:], '\n')
		if nl < 0 {
			return 0, false
		}
		start += nl + 1
	}
}

// cutFoldPrefix strips label — lower-case ASCII — from the front of s the
// way a (?i) regex literal would match it: either case of each letter,
// and U+017F (long s) for an s.
func cutFoldPrefix(s, label string) (string, bool) {
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case s == "":
			return "", false
		case s[0] == c || (c >= 'a' && c <= 'z' && s[0] == c-'a'+'A'):
			s = s[1:]
		case c == 's' && strings.HasPrefix(s, "\u017f"):
			s = s[len("\u017f"):]
		default:
			return "", false
		}
	}
	return s, true
}

func cmp(x float64, op string, v float64) bool {
	switch op {
	case ">":
		return x > v
	case ">=":
		return x >= v
	case "<":
		return x < v
	case "<=":
		return x <= v
	case "==":
		return x == v
	default:
		return false
	}
}

// EvalStructured evaluates a Numeric or Year condition against rendered
// document text. It must only be called when Structured() is true; it
// returns false for semantic kinds.
func (c Cond) EvalStructured(text string) bool {
	switch c.Kind {
	case Numeric:
		x, ok := ExtractField(text, c.Field)
		return ok && cmp(x, c.Op, c.Value)
	case Year:
		x, ok := ExtractField(text, "year")
		return ok && cmp(x, c.Op, c.Value)
	case Range:
		x, ok := ExtractField(text, "year")
		return ok && x >= c.Value && x <= c.Value2
	default:
		return false
	}
}

// EvalSemantic evaluates any condition kind against rendered document
// text, using lexicon knowledge for semantic kinds. This is the judgment
// the simulated LLM performs (before its noise model is applied).
func (c Cond) EvalSemantic(text string) bool {
	switch c.Kind {
	case Numeric, Year, Range:
		return c.EvalStructured(text)
	case Concept:
		// Two independent indicator words are required: genuinely
		// on-concept documents carry several, while an off-topic aside
		// (a distractor mention) carries only one.
		return lexicon.Match(text, c.Concept, 2)
	case Subset:
		sub, ok := lexicon.LookupSubset(c.Concept)
		if !ok {
			return false
		}
		best := lexicon.BestConcept(text, sub.Class)
		return best != "" && sub.Members[best]
	default:
		return false
	}
}

// EvalLabel evaluates a Subset (or Concept) condition against a bare group
// label such as "football" rather than document text.
func (c Cond) EvalLabel(label string) bool {
	switch c.Kind {
	case Subset:
		return lexicon.InSubset(c.Concept, label)
	case Concept:
		return strings.EqualFold(c.Concept, label)
	default:
		return false
	}
}

// String renders the condition back to compact natural language; used in
// prompts and debugging output.
func (c Cond) String() string {
	switch c.Kind {
	case Numeric:
		return c.Field + " " + c.Op + " " + strconv.FormatFloat(c.Value, 'f', -1, 64)
	case Year:
		return "year " + c.Op + " " + strconv.FormatFloat(c.Value, 'f', -1, 64)
	case Range:
		return fmt.Sprintf("posted between %d and %d", int(c.Value), int(c.Value2))
	case Concept:
		return "related to " + c.Concept
	case Subset:
		if sub, ok := lexicon.LookupSubset(c.Concept); ok {
			return sub.Phrase
		}
		return "in subset " + c.Concept
	default:
		return "invalid"
	}
}
