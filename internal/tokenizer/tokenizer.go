// Package tokenizer provides text tokenization primitives shared by the
// embedding model, the keyword-based physical operators, and the simulated
// LLM backend. It deliberately implements only lightweight, deterministic
// processing: lowercasing, punctuation splitting, stop-word removal and a
// tiny suffix stemmer, which is all the upstream components rely on.
package tokenizer

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords is a compact English stop-word list. It intentionally keeps
// comparison and quantity words ("more", "most", "least") because query
// parsing relies on them.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "is": true, "are": true,
	"was": true, "were": true, "be": true, "been": true, "being": true,
	"of": true, "in": true, "on": true, "at": true, "to": true,
	"for": true, "from": true, "by": true, "with": true, "and": true,
	"or": true, "as": true, "it": true, "its": true, "this": true,
	"that": true, "these": true, "those": true, "there": true,
	"i": true, "you": true, "he": true, "she": true, "we": true,
	"they": true, "my": true, "your": true, "our": true, "their": true,
	"do": true, "does": true, "did": true, "have": true, "has": true,
	"had": true, "will": true, "would": true, "can": true, "could": true,
	"should": true, "may": true, "might": true, "am": true, "so": true,
	"but": true, "if": true, "then": true, "than": true, "not": true,
	"no": true, "nor": true, "into": true, "about": true, "over": true,
	"under": true, "after": true, "before": true, "between": true,
	"what": true, "which": true, "who": true, "whom": true, "how": true,
	"when": true, "where": true, "why": true, "any": true, "all": true,
	"some": true, "such": true, "own": true, "same": true, "too": true,
	"very": true, "just": true, "also": true, "each": true, "per": true,
}

// IsStopword reports whether w (already lowercased) is a stop word.
func IsStopword(w string) bool { return stopwords[w] }

// Tokenize splits text into lowercase word tokens. Digits are kept as
// tokens (numeric facts such as view counts matter to the analytics
// operators). Punctuation separates tokens and is dropped.
func Tokenize(text string) []string {
	tokens := make([]string, 0, len(text)/6+1)
	// ASCII fast path: a token is a substring of text, copied only when
	// it holds an upper-case letter.
	start, upper := -1, false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c >= utf8.RuneSelf:
			return tokenizeRunes(text)
		case asciiLower[c] == 0:
			if start >= 0 {
				tokens = appendToken(tokens, text[start:i], upper)
				start, upper = -1, false
			}
		default:
			if start < 0 {
				start = i
			}
			upper = upper || c != asciiLower[c]
		}
	}
	if start >= 0 {
		tokens = appendToken(tokens, text[start:], upper)
	}
	return tokens
}

func appendToken(tokens []string, tok string, upper bool) []string {
	if upper {
		tok = strings.ToLower(tok)
	}
	return append(tokens, tok)
}

// tokenizeRunes is Tokenize for text with non-ASCII bytes.
func tokenizeRunes(text string) []string {
	tokens := make([]string, 0, len(text)/6+1)
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

// asciiLower maps an ASCII letter or digit to its lowercase form and every
// other byte to 0 (a token separator).
var asciiLower = func() (t [utf8.RuneSelf]byte) {
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c)
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = byte(c)
		t[c-'a'+'A'] = byte(c)
	}
	return t
}()

// Terms tokenizes text and removes stop words, applying the light stemmer.
// It is the canonical preprocessing used by the embedder and the simulated
// LLM's keyword matching, so both sides agree on vocabulary.
func Terms(text string) []string {
	raw := Tokenize(text)
	out := raw[:0]
	for _, t := range raw {
		if stopwords[t] {
			continue
		}
		out = append(out, Stem(t))
	}
	return out
}

// TermIter yields the terms of a text — exactly the strings Terms returns,
// in order — one at a time, without building the slice. The zero value
// iterates an empty text.
type TermIter struct {
	text string
	pos  int
	buf  [32]byte // backs the returned term; longer tokens spill to the heap
}

// NewTermIter returns an iterator over the terms of text.
func NewTermIter(text string) TermIter { return TermIter{text: text} }

// Next returns the next term, or ok=false after the last one. The bytes are
// only valid until the following call.
func (it *TermIter) Next() (term []byte, ok bool) {
	for {
		tok := it.nextToken()
		if len(tok) == 0 {
			return nil, false
		}
		if stopwords[string(tok)] {
			continue
		}
		n, y := stemCut(tok)
		tok = tok[:n]
		if y {
			tok = append(tok, 'y')
		}
		return tok, true
	}
}

// nextToken returns the next lowercased token, empty at the end of text.
func (it *TermIter) nextToken() []byte {
	tok := it.buf[:0]
	text, i := it.text, it.pos
	for i < len(text) {
		c := text[i]
		if c < utf8.RuneSelf {
			i++
			if lc := asciiLower[c]; lc != 0 {
				tok = append(tok, lc)
			} else if len(tok) > 0 {
				it.pos = i
				return tok
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		i += size
		switch {
		case unicode.IsLetter(r):
			tok = utf8.AppendRune(tok, unicode.ToLower(r))
		case unicode.IsDigit(r):
			tok = utf8.AppendRune(tok, r)
		default:
			if len(tok) > 0 {
				it.pos = i
				return tok
			}
		}
	}
	it.pos = i
	return tok
}

// Stem applies a tiny deterministic suffix stemmer (a small subset of
// Porter step 1): plural and gerund/participle endings. It never shortens
// a token below three characters, which keeps short domain words intact.
func Stem(w string) string {
	n, y := stemCut(w)
	if y {
		return w[:n] + "y"
	}
	return w[:n]
}

// stemCut is Stem's rule table: the stem of w is its first n bytes,
// followed by "y" when y is set.
func stemCut[S string | []byte](w S) (n int, y bool) {
	n = len(w)
	switch {
	case n > 4 && hasSuffix(w, "ies"):
		return n - 3, true
	case n > 4 && hasSuffix(w, "sses"):
		return n - 2, false
	case n > 4 && (hasSuffix(w, "shes") || hasSuffix(w, "ches") || hasSuffix(w, "xes")):
		return n - 2, false
	case n > 3 && hasSuffix(w, "s") && !hasSuffix(w, "ss") && !hasSuffix(w, "us"):
		return n - 1, false
	case n > 5 && hasSuffix(w, "ing"):
		return n - 3, false
	case n > 4 && hasSuffix(w, "ed"):
		return n - 2, false
	default:
		return n, false
	}
}

func hasSuffix[S string | []byte](w S, suffix string) bool {
	if len(w) < len(suffix) {
		return false
	}
	tail := w[len(w)-len(suffix):]
	for i := 0; i < len(suffix); i++ {
		if tail[i] != suffix[i] {
			return false
		}
	}
	return true
}

// Bigrams returns adjacent term pairs joined by '_'. Bigrams sharpen the
// embedding space so that multiword concepts ("entity matching") embed
// differently from their parts.
func Bigrams(terms []string) []string {
	if len(terms) < 2 {
		return nil
	}
	out := make([]string, 0, len(terms)-1)
	for i := 0; i+1 < len(terms); i++ {
		out = append(out, terms[i]+"_"+terms[i+1])
	}
	return out
}

// ContainsTerm reports whether any stemmed term of text equals the stem of
// word. It is the primitive used by keyword filters.
func ContainsTerm(text, word string) bool {
	target := Stem(strings.ToLower(word))
	it := NewTermIter(text)
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		if string(t) == target {
			return true
		}
	}
	return false
}

// ContainsAny reports whether text contains any of the given words
// (stem-matched). An empty word list never matches.
func ContainsAny(text string, words []string) bool {
	if len(words) == 0 {
		return false
	}
	set := make(map[string]bool, len(words))
	for _, w := range words {
		set[Stem(strings.ToLower(w))] = true
	}
	it := NewTermIter(text)
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		if set[string(t)] {
			return true
		}
	}
	return false
}
