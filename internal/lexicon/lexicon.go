// Package lexicon holds the shared concept vocabulary of the reproduction.
//
// The synthetic corpus generators use these word lists to render documents,
// and the simulated LLM uses the same lists as its "world knowledge" when
// judging semantic predicates such as "questions related to injuries" or
// "sports involving a ball". Sharing the vocabulary is the substitute for a
// real LLM's language understanding: a document about football really does
// contain football words, and the judge really does recognize them, so
// semantic filtering is a genuine text-comprehension task rather than a
// lookup of hidden labels.
package lexicon

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"unify/internal/tokenizer"
)

// Concept is a named semantic concept with indicator words.
type Concept struct {
	Name  string   // canonical name, e.g. "football", "injury"
	Words []string // indicator words, including the name itself
	// Class groups concepts: "sport", "topic", "aifield", "lawarea",
	// "wikicat". Used to enumerate candidate group labels.
	Class string
}

// BallSports lists the sports that involve a ball; the running example
// query of the paper ("which sport involving a ball ...") depends on it.
var BallSports = map[string]bool{
	"football": true, "basketball": true, "tennis": true, "baseball": true,
	"golf": true, "volleyball": true, "cricket": true, "rugby": true,
}

// TeamSports lists sports that require teamwork (used by semantic-filter
// style conditions such as "sports that require teamwork").
var TeamSports = map[string]bool{
	"football": true, "basketball": true, "baseball": true,
	"volleyball": true, "cricket": true, "rugby": true, "hockey": true,
}

var concepts = [...]Concept{
	// Sports (class "sport").
	{"football", []string{"football", "soccer", "goal", "goalkeeper", "midfielder", "penalty", "offside", "striker"}, "sport"},
	{"basketball", []string{"basketball", "hoop", "dribble", "dunk", "rebound", "layup", "backboard"}, "sport"},
	{"tennis", []string{"tennis", "racket", "serve", "backhand", "forehand", "baseline", "volley", "deuce"}, "sport"},
	{"baseball", []string{"baseball", "pitcher", "inning", "batter", "homerun", "catcher", "bullpen", "strikeout"}, "sport"},
	{"golf", []string{"golf", "fairway", "putt", "birdie", "bogey", "tee", "caddie", "bunker"}, "sport"},
	{"volleyball", []string{"volleyball", "spike", "setter", "libero", "block", "dig", "rotation"}, "sport"},
	{"cricket", []string{"cricket", "wicket", "bowler", "batsman", "over", "crease", "lbw"}, "sport"},
	{"rugby", []string{"rugby", "scrum", "tackle", "lineout", "fly-half", "ruck", "maul"}, "sport"},
	{"swimming", []string{"swimming", "freestyle", "backstroke", "butterfly", "lap", "pool", "breaststroke"}, "sport"},
	{"running", []string{"running", "marathon", "sprint", "jog", "pace", "stride", "treadmill"}, "sport"},
	{"cycling", []string{"cycling", "bicycle", "peloton", "cadence", "saddle", "derailleur", "sprocket"}, "sport"},
	{"hockey", []string{"hockey", "puck", "stick", "rink", "slapshot", "faceoff", "goalie"}, "sport"},

	// Rare sports (long-tail categories; queries over them stress
	// cardinality estimation).
	{"curling", []string{"curling", "stone", "sweeping", "skip", "hammer", "bonspiel", "sheet"}, "sport"},
	{"fencing", []string{"fencing", "foil", "epee", "sabre", "parry", "riposte", "piste"}, "sport"},
	{"archery", []string{"archery", "bow", "arrow", "quiver", "bullseye", "fletching", "nock"}, "sport"},

	// Question topics (class "topic").
	{"injury", []string{"injury", "injured", "pain", "sprain", "fracture", "strain", "swelling", "recovery", "ache", "torn"}, "topic"},
	{"training", []string{"training", "drill", "practice", "workout", "conditioning", "exercise", "regimen", "warmup"}, "topic"},
	{"rules", []string{"rule", "regulation", "referee", "foul", "legal", "permitted", "violation", "umpire"}, "topic"},
	{"equipment", []string{"equipment", "gear", "shoes", "helmet", "glove", "apparel", "cleats", "padding"}, "topic"},
	{"nutrition", []string{"nutrition", "diet", "protein", "hydration", "calorie", "supplement", "carbohydrate"}, "topic"},
	{"history", []string{"history", "historical", "origin", "founded", "tradition", "record", "era", "ancient"}, "topic"},

	// AI sub-fields (class "aifield").
	{"neural-networks", []string{"neural", "network", "backpropagation", "gradient", "layer", "activation", "weights"}, "aifield"},
	{"reinforcement-learning", []string{"reinforcement", "reward", "policy", "agent", "q-learning", "environment", "exploration"}, "aifield"},
	{"nlp", []string{"language", "nlp", "token", "parsing", "translation", "corpus", "embedding", "transformer"}, "aifield"},
	{"computer-vision", []string{"vision", "image", "convolution", "detection", "segmentation", "pixel", "camera"}, "aifield"},
	{"ethics", []string{"ethics", "bias", "fairness", "alignment", "safety", "accountability", "transparency"}, "aifield"},
	{"search", []string{"search", "heuristic", "minimax", "astar", "pathfinding", "pruning", "frontier"}, "aifield"},

	// Law areas (class "lawarea").
	{"contract", []string{"contract", "breach", "clause", "agreement", "consideration", "party", "obligation"}, "lawarea"},
	{"criminal", []string{"criminal", "felony", "prosecution", "defendant", "sentence", "arrest", "guilty"}, "lawarea"},
	{"copyright", []string{"copyright", "infringement", "license", "royalty", "trademark", "patent", "fair-use"}, "lawarea"},
	{"employment", []string{"employment", "employer", "wrongful", "wage", "termination", "discrimination", "overtime"}, "lawarea"},
	{"property", []string{"property", "landlord", "tenant", "lease", "easement", "deed", "eviction"}, "lawarea"},
	{"privacy", []string{"privacy", "surveillance", "consent", "data-protection", "gdpr", "disclosure", "confidential"}, "lawarea"},

	// Rare AI sub-fields.
	{"robotics", []string{"robotics", "actuator", "servo", "kinematics", "gripper", "locomotion", "sensor"}, "aifield"},
	{"planning", []string{"planning", "scheduler", "goal", "precondition", "operator", "strips", "plan"}, "aifield"},
	{"knowledge-representation", []string{"ontology", "taxonomy", "predicate", "inference", "logic", "axiom", "reasoner"}, "aifield"},

	// AI question aspects (class "aiaspect").
	{"theory", []string{"theory", "theorem", "proof", "convergence", "bound", "complexity", "formal"}, "aiaspect"},
	{"implementation", []string{"implementation", "code", "library", "debug", "framework", "install", "runtime"}, "aiaspect"},
	{"benchmark", []string{"benchmark", "dataset", "evaluation", "metric", "accuracy", "baseline", "leaderboard"}, "aiaspect"},
	{"hardware", []string{"hardware", "gpu", "memory", "cuda", "chip", "throughput", "parallelism"}, "aiaspect"},
	{"career", []string{"career", "job", "interview", "degree", "salary", "hiring", "resume"}, "aiaspect"},
	{"research", []string{"research", "paper", "citation", "publication", "conference", "peer-review", "novelty"}, "aiaspect"},

	// Rare law areas.
	{"maritime", []string{"maritime", "admiralty", "vessel", "salvage", "cargo", "charter", "seaworthy"}, "lawarea"},
	{"immigration", []string{"immigration", "visa", "asylum", "deportation", "citizenship", "naturalization", "passport"}, "lawarea"},
	{"tax", []string{"tax", "deduction", "audit", "taxable", "exemption", "withholding", "levy"}, "lawarea"},

	// Law question aspects (class "lawaspect").
	{"liability", []string{"liability", "liable", "negligence", "damages", "fault", "compensation", "tort"}, "lawaspect"},
	{"procedure", []string{"procedure", "filing", "motion", "hearing", "deadline", "jurisdiction", "docket"}, "lawaspect"},
	{"penalty", []string{"penalty", "fine", "punishment", "imprisonment", "sanction", "probation", "restitution"}, "lawaspect"},
	{"evidence", []string{"evidence", "testimony", "witness", "exhibit", "admissible", "hearsay", "discovery"}, "lawaspect"},
	{"appeal", []string{"appeal", "appellate", "overturn", "remand", "reversal", "petition", "review"}, "lawaspect"},
	{"definition", []string{"definition", "meaning", "interpretation", "statute", "terminology", "defined", "construe"}, "lawaspect"},

	// Wikipedia page aspects (class "wikiaspect").
	{"biography", []string{"biography", "born", "died", "childhood", "legacy", "career", "life"}, "wikiaspect"},
	{"event", []string{"event", "occurred", "ceremony", "celebration", "anniversary", "battle", "festival"}, "wikiaspect"},
	{"place", []string{"place", "located", "capital", "district", "landmark", "coordinates", "border"}, "wikiaspect"},
	{"organization", []string{"organization", "founded", "headquarters", "member", "nonprofit", "institution", "charter"}, "wikiaspect"},
	{"work", []string{"work", "published", "novel", "album", "film", "premiere", "author"}, "wikiaspect"},
	{"concept", []string{"concept", "defined", "principle", "framework", "notion", "abstraction", "paradigm"}, "wikiaspect"},

	// Wikipedia categories (class "wikicat").
	{"astronomy", []string{"astronomy", "telescope", "galaxy", "nebula", "orbit", "asteroid", "constellation"}, "wikicat"},
	{"mythology", []string{"mythology", "myth", "deity", "legend", "pantheon", "folklore", "oracle"}, "wikicat"},
	{"linguistics", []string{"linguistics", "phoneme", "syntax", "dialect", "morphology", "etymology", "grammar"}, "wikicat"},
	{"science", []string{"science", "experiment", "physics", "chemistry", "hypothesis", "laboratory", "theory"}, "wikicat"},
	{"geography", []string{"geography", "river", "mountain", "continent", "climate", "population", "region"}, "wikicat"},
	{"arts", []string{"arts", "painting", "sculpture", "museum", "composer", "gallery", "exhibition"}, "wikicat"},
	{"technology", []string{"technology", "software", "hardware", "internet", "computer", "protocol", "algorithm"}, "wikicat"},
	{"biology", []string{"biology", "species", "cell", "organism", "evolution", "habitat", "genome"}, "wikicat"},
	{"economics", []string{"economics", "market", "inflation", "trade", "currency", "investment", "supply"}, "wikicat"},
}

// The vocabulary is compiled once, at package init, into the tables that
// let Scan read a text a single time.
var (
	// index maps a canonical concept name to its position in concepts.
	index = make(map[string]int, len(concepts))
	// classMembers lists each class's concepts sorted by name, the order
	// in which ties break.
	classMembers = make(map[string][]int)
	// stemIndex maps the stem of an indicator word to every (concept,
	// word) it belongs to: a list, because a stem such as "goal" or
	// "baseline" serves two concepts.
	stemIndex = make(map[string][]wordRef)
	// nameWords[c] lists the words of concept c that are themselves
	// concept names, each with the concept it names (see Hits.Evoked).
	nameWords [len(concepts)][]wordRef
)

// wordRef is one indicator word's bit in a concept's hit mask.
type wordRef struct {
	concept int
	bit     uint16
}

func init() {
	for ci, c := range concepts {
		index[c.Name] = ci
		classMembers[c.Class] = append(classMembers[c.Class], ci)
	}
	for _, members := range classMembers {
		sort.Slice(members, func(a, b int) bool { return concepts[members[a]].Name < concepts[members[b]].Name })
	}
	for ci, c := range concepts {
		if len(c.Words) > 16 {
			panic(fmt.Sprintf("lexicon: concept %s has %d indicator words, Hits holds 16", c.Name, len(c.Words)))
		}
		for wi, w := range c.Words {
			bit := uint16(1) << wi
			stem := tokenizer.Stem(strings.ToLower(w))
			stemIndex[stem] = append(stemIndex[stem], wordRef{ci, bit})
			if named, ok := lookup(w); ok {
				nameWords[ci] = append(nameWords[ci], wordRef{named, bit})
			}
		}
	}
}

// Lookup returns the concept with the given canonical name.
func Lookup(name string) (Concept, bool) {
	ci, ok := lookup(name)
	if !ok {
		return Concept{}, false
	}
	return concepts[ci], true
}

func lookup(name string) (int, bool) {
	ci, ok := index[strings.ToLower(strings.TrimSpace(name))]
	return ci, ok
}

// Names returns the canonical names of all concepts in a class, sorted.
func Names(class string) []string {
	members := classMembers[class]
	if len(members) == 0 {
		return nil
	}
	out := make([]string, len(members))
	for i, ci := range members {
		out[i] = concepts[ci].Name
	}
	return out
}

// All returns every concept (copy of the registry order).
func All() []Concept {
	out := make([]Concept, len(concepts))
	copy(out, concepts[:])
	return out
}

// Hits is the result of reading a text once against the whole vocabulary:
// for every concept, the set of its indicator words that occur in the
// text, as a bitmask over Concept.Words. It is a small value (two bytes
// per concept) that holds nothing of the text.
type Hits [len(concepts)]uint16

// Scan reads text once and reports which indicator words it contains.
//
// An indicator word w hits when Stem(lower(w)) is among the text's terms,
// {Stem(t) : t in Tokenize(text), t not a stop word}. Every judgment in
// this package is a function of that one set: a concept's hit count is the
// number of its distinct indicator words that hit, however often each
// occurs in the text.
func Scan(text string) Hits {
	var h Hits
	it := tokenizer.NewTermIter(text)
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		for _, ref := range stemIndex[string(t)] {
			h[ref.concept] |= ref.bit
		}
	}
	return h
}

// Count returns how many of the named concept's indicator words hit; zero
// for an unknown concept.
func (h *Hits) Count(name string) int {
	ci, ok := lookup(name)
	if !ok {
		return 0
	}
	return bits.OnesCount16(h[ci])
}

// Best returns the concept of the given class with the most hits, or "" if
// none hit. Ties break alphabetically for determinism.
func (h *Hits) Best(class string) string {
	best, bestHits := "", 0
	for _, ci := range classMembers[class] {
		if n := bits.OnesCount16(h[ci]); n > bestHits {
			best, bestHits = concepts[ci].Name, n
		}
	}
	return best
}

// Evoked returns how many of the named concept's indicator words w satisfy
// Match(text, w, 1) for the scanned text. It differs from Count only for
// an indicator word that is itself a concept name ("penalty" under
// football, "career" under biography, a concept's own name): such a word
// counts when any word of the concept it names hit. Zero for an unknown
// concept.
func (h *Hits) Evoked(name string) int {
	ci, ok := lookup(name)
	if !ok {
		return 0
	}
	mask, n := h[ci], 0
	for _, nw := range nameWords[ci] {
		mask &^= nw.bit
		if h[nw.concept] != 0 {
			n++
		}
	}
	return n + bits.OnesCount16(mask)
}

// Match reports whether text evokes the named concept, i.e. whether at
// least minHits of the concept's distinct indicator words hit (see Scan;
// minHits below 1 means 1). An unknown concept name falls back to the
// bare-word test: the name itself must be a term of the text. The
// simulated LLM's semantic yes/no judgment is Match(text, name, 2)
// (nlcond.EvalSemantic); the corpus generator guarantees documents about
// a concept contain several of its words and documents about other
// concepts at most a stray one.
func Match(text, name string, minHits int) bool {
	ci, ok := lookup(name)
	if !ok {
		return tokenizer.ContainsTerm(text, name)
	}
	if minHits <= 0 {
		minHits = 1
	}
	h := Scan(text)
	return bits.OnesCount16(h[ci]) >= minHits
}

// BestConcept returns the concept of the given class with the most
// indicator-word hits in text, or "" if none hit. Ties break
// alphabetically for determinism. This powers semantic GroupBy/Classify.
func BestConcept(text, class string) string {
	h := Scan(text)
	return h.Best(class)
}

// Subset is a semantic subset of a concept class — "sports involving a
// ball", "fields related to machine learning" — used by queries that
// restrict group labels with a semantic predicate.
type Subset struct {
	Name    string // canonical name, e.g. "ball"
	Class   string
	Members map[string]bool
	Phrase  string // canonical surface phrase, e.g. "involving a ball"
}

var subsets = map[string]Subset{
	"ball":             {"ball", "sport", BallSports, "involving a ball"},
	"teamwork":         {"teamwork", "sport", TeamSports, "requiring teamwork"},
	"machine-learning": {"machine-learning", "aifield", map[string]bool{"neural-networks": true, "reinforcement-learning": true, "nlp": true, "computer-vision": true}, "related to machine learning"},
	"money":            {"money", "lawarea", map[string]bool{"contract": true, "employment": true, "property": true, "copyright": true}, "involving money"},
	"natural-world":    {"natural-world", "wikicat", map[string]bool{"science": true, "biology": true, "geography": true}, "about the natural world"},
}

// LookupSubset returns the named semantic subset.
func LookupSubset(name string) (Subset, bool) {
	s, ok := subsets[strings.ToLower(strings.TrimSpace(name))]
	return s, ok
}

// InSubset reports whether a concept name belongs to the named subset.
func InSubset(subset, concept string) bool {
	s, ok := LookupSubset(subset)
	return ok && s.Members[strings.ToLower(concept)]
}
