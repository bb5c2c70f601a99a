package lexicon

import (
	"strings"
	"testing"
)

func TestLookup(t *testing.T) {
	c, ok := Lookup("football")
	if !ok || c.Class != "sport" {
		t.Fatalf("Lookup(football) = %+v, %v", c, ok)
	}
	if _, ok := Lookup("no-such-concept"); ok {
		t.Error("unknown concept found")
	}
	if _, ok := Lookup("  FOOTBALL  "); !ok {
		t.Error("lookup should normalize case/space")
	}
}

func TestNamesDistinctAndSorted(t *testing.T) {
	for _, class := range []string{"sport", "topic", "aifield", "lawarea", "wikicat", "aiaspect", "lawaspect", "wikiaspect"} {
		names := Names(class)
		if len(names) < 6 {
			t.Errorf("class %s has only %d concepts", class, len(names))
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Errorf("class %s names not sorted/unique: %v", class, names)
			}
		}
	}
}

func TestNoDuplicateConceptNames(t *testing.T) {
	seen := map[string]string{}
	for _, c := range All() {
		if prev, dup := seen[c.Name]; dup {
			t.Errorf("concept %q in both %s and %s", c.Name, prev, c.Class)
		}
		seen[c.Name] = c.Class
	}
}

func TestMatch(t *testing.T) {
	text := "The goalkeeper committed a penalty during the football match."
	if !Match(text, "football", 1) {
		t.Error("football not matched")
	}
	if !Match(text, "football", 2) {
		t.Error("two indicator words present but minHits=2 failed")
	}
	if Match(text, "tennis", 1) {
		t.Error("tennis matched wrongly")
	}
	// Unknown concept falls back to the bare word.
	if !Match("we talked about quasars", "quasars", 1) {
		t.Error("bare-word fallback failed")
	}
}

func TestBestConcept(t *testing.T) {
	text := "The pitcher threw a strikeout in the ninth inning; the batter was out."
	if got := BestConcept(text, "sport"); got != "baseball" {
		t.Errorf("BestConcept = %q, want baseball", got)
	}
	if got := BestConcept("nothing sporty here", "sport"); got != "" {
		t.Errorf("BestConcept on neutral text = %q, want empty", got)
	}
}

func TestSubsets(t *testing.T) {
	for name := range subsets {
		sub, ok := LookupSubset(name)
		if !ok {
			t.Fatalf("subset %s not found", name)
		}
		if len(sub.Members) == 0 || sub.Phrase == "" {
			t.Errorf("subset %s incomplete: %+v", name, sub)
		}
		// Every member must be a real concept of the subset's class.
		for m := range sub.Members {
			c, ok := Lookup(m)
			if !ok || c.Class != sub.Class {
				t.Errorf("subset %s member %q not in class %s", name, m, sub.Class)
			}
		}
	}
	if !InSubset("ball", "football") || InSubset("ball", "swimming") {
		t.Error("ball subset membership wrong")
	}
}

// TestConceptWordsMostlySingleToken documents the matching constraint:
// hyphenated indicator words cannot match via ContainsTerm, so each
// concept needs enough plain words.
func TestConceptWordsMostlySingleToken(t *testing.T) {
	for _, c := range All() {
		plain := 0
		for _, w := range c.Words {
			if !strings.ContainsAny(w, "- ") {
				plain++
			}
		}
		if plain < 5 {
			t.Errorf("concept %s has only %d plain indicator words", c.Name, plain)
		}
	}
}
