// Package corpus generates the four synthetic evaluation datasets that
// substitute for the paper's Stack Exchange archives and Wikipedia sample
// (Sports 3,898 / AI 5,137 / Law 2,053 / Wiki 1,000 documents).
//
// Each document is born from a hidden structured record (category concept,
// aspect concept, views, score, year) and rendered to plain text that
// mimics a crawled web page: explicit numeric header fields (as real Stack
// Exchange pages show "Viewed 523 times") and free prose whose vocabulary
// evokes the category and aspect concepts, plus distractor words that
// create genuine classification ambiguity. The analytics system only ever
// sees the rendered text; the hidden record is used exclusively for
// ground-truth computation by the workload module.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"unify/internal/docstore"
	"unify/internal/lexicon"
)

// Hidden is the structured record behind a rendered document.
type Hidden struct {
	Category string // lexicon concept of the dataset's category class
	Aspect   string // lexicon concept of the dataset's aspect class
	Views    int
	Score    int
	Year     int
}

// Doc pairs a rendered document with its hidden record.
type Doc struct {
	ID     int
	Title  string
	Text   string
	Hidden Hidden
}

// Dataset is a generated corpus plus its schema metadata. The metadata
// (class words, entity word) parameterizes workload generation; the
// analytics system itself receives only the documents.
type Dataset struct {
	Name        string
	EntityWord  string // "questions" or "articles"
	CatClass    string // lexicon class of the category dimension
	AspectClass string // lexicon class of the aspect dimension
	CatWord     string // surface word used in queries ("sport", "field", ...)
	AspectWord  string // surface word for the aspect dimension ("topic")
	SubsetName  string // the semantic label subset usable in queries
	Docs        []Doc
}

// profile describes one of the four datasets.
type profile struct {
	entityWord  string
	catClass    string
	aspectClass string
	catWord     string
	subsetName  string
	defaultSize int
	seed        int64
}

var profiles = map[string]profile{
	"sports": {"questions", "sport", "topic", "sport", "ball", 3898, 101},
	"ai":     {"questions", "aifield", "aiaspect", "field", "machine-learning", 5137, 102},
	"law":    {"questions", "lawarea", "lawaspect", "area", "money", 2053, 103},
	"wiki":   {"articles", "wikicat", "wikiaspect", "category", "natural-world", 1000, 104},
}

// Names lists the supported dataset names.
func Names() []string { return []string{"sports", "ai", "law", "wiki"} }

// DefaultSize returns the paper's document count for a dataset.
func DefaultSize(name string) int {
	if p, ok := profiles[name]; ok {
		return p.defaultSize
	}
	return 0
}

// Generate builds a dataset with the paper's document count.
func Generate(name string) (*Dataset, error) {
	return GenerateN(name, DefaultSize(name))
}

// GenerateN builds a dataset with n documents (useful for fast tests).
func GenerateN(name string, n int) (*Dataset, error) {
	p, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("corpus: unknown dataset %q (want one of %v)", name, Names())
	}
	if n <= 0 {
		return nil, fmt.Errorf("corpus: non-positive size %d", n)
	}
	rng := rand.New(rand.NewSource(p.seed))
	cats := lexicon.Names(p.catClass)
	aspects := lexicon.Names(p.aspectClass)
	ds := &Dataset{
		Name:        name,
		EntityWord:  p.entityWord,
		CatClass:    p.catClass,
		AspectClass: p.aspectClass,
		CatWord:     p.catWord,
		AspectWord:  "topic",
		SubsetName:  p.subsetName,
		Docs:        make([]Doc, 0, n),
	}
	catWeights := zipfWeights(len(cats), 1.3)
	aspWeights := zipfWeights(len(aspects), 0.7)
	for i := 0; i < n; i++ {
		cat := cats[weightedPick(rng, catWeights)]
		asp := aspects[weightedPick(rng, aspWeights)]
		// Numeric fields correlate with the document's concepts (popular
		// sports draw more views, some aspects score higher) — without
		// this, dropping a filter would barely change aggregates and
		// every sloppy method would look accurate.
		views := int(float64(lognormalViews(rng)) * conceptFactor(cat, 0.4, 2.5) * conceptFactor(asp, 0.7, 1.4))
		if views < 5 {
			views = 5
		}
		h := Hidden{
			Category: cat,
			Aspect:   asp,
			Views:    views,
			// Stack Exchange quality cut: >= 3 upvotes; the tail length
			// depends on the aspect.
			Score: 3 + geometric(rng, 0.15+0.3*hash01(asp+"|score")) + int(3*hash01(cat+"|score")),
			Year:  2009 + rng.Intn(16),
		}
		title, text := render(rng, p, h)
		ds.Docs = append(ds.Docs, Doc{ID: i, Title: title, Text: text, Hidden: h})
	}
	return ds, nil
}

// Documents converts the dataset to docstore documents (text only).
func (d *Dataset) Documents() []docstore.Document {
	out := make([]docstore.Document, len(d.Docs))
	for i, doc := range d.Docs {
		out[i] = docstore.Document{ID: doc.ID, Title: doc.Title, Text: doc.Text}
	}
	return out
}

// zipfWeights returns normalized Zipf-like weights so category sizes are
// skewed (some sports dominate, as on real Stack Exchange sites).
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

func weightedPick(rng *rand.Rand, weights []float64) int {
	r := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}

// hash01 maps a string to a deterministic value in [0,1).
func hash01(s string) float64 {
	var h uint64 = 14695981039346656037
	for _, b := range []byte(s) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return float64(h>>11) / (1 << 53)
}

// conceptFactor maps a concept name to a deterministic log-uniform factor
// in [lo, hi].
func conceptFactor(name string, lo, hi float64) float64 {
	u := hash01(name + "|factor")
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// lognormalViews draws a view count with a heavy right tail (median a few
// hundred, occasional tens of thousands).
func lognormalViews(rng *rand.Rand) int {
	v := math.Exp(5.6 + 1.1*rng.NormFloat64())
	if v < 5 {
		v = 5
	}
	if v > 200000 {
		v = 200000
	}
	return int(v)
}

func geometric(rng *rand.Rand, p float64) int {
	n := 0
	for rng.Float64() > p && n < 400 {
		n++
	}
	return n
}

// neutral filler vocabulary and sentence frames.
var neutralWords = []string{
	"yesterday", "morning", "weekend", "beginner", "advanced", "general",
	"opinion", "advice", "experience", "situation", "example", "detail",
	"question", "answer", "approach", "context", "result", "issue",
}

var bodyFrames = []string{
	"I have been wondering %s lately and wanted to ask here.",
	"My main concern is %s, especially for a %s person.",
	"Last %s I ran into a situation involving %s.",
	"Could someone share their %s regarding %s?",
	"There is a lot of debate around %s in my club.",
	"I read several posts but none addressed %s directly.",
	"Any %s on handling %s would be appreciated.",
}

var titleFrames = []string{
	"Question about %s and %s",
	"How should I handle %s when dealing with %s?",
	"Is %s relevant to %s?",
	"Need advice on %s for %s",
	"Why does %s matter for %s?",
}

// pickWords draws k distinct indicator words of a concept, skipping
// hyphenated entries (which single-token matching cannot recover).
func pickWords(rng *rand.Rand, concept string, k int) []string {
	c, ok := lexicon.Lookup(concept)
	if !ok || len(c.Words) == 0 {
		return nil
	}
	var usable []string
	for _, w := range c.Words {
		if !strings.ContainsAny(w, "- ") {
			usable = append(usable, w)
		}
	}
	if len(usable) == 0 {
		return nil
	}
	idx := rng.Perm(len(usable))
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = usable[idx[i]]
	}
	return out
}

func render(rng *rand.Rand, p profile, h Hidden) (title, text string) {
	catWords := pickWords(rng, h.Category, 3+rng.Intn(3))
	aspWords := pickWords(rng, h.Aspect, 3+rng.Intn(2))
	if len(catWords) == 0 {
		catWords = []string{h.Category}
	}
	if len(aspWords) == 0 {
		aspWords = []string{h.Aspect}
	}

	title = fmt.Sprintf(titleFrames[rng.Intn(len(titleFrames))], catWords[0], aspWords[0])

	var body []string
	use := func(frame string, words ...interface{}) {
		// Frames may need 1 or 2 slots; pad with neutral words.
		n := strings.Count(frame, "%s")
		args := make([]interface{}, n)
		for i := 0; i < n; i++ {
			if i < len(words) {
				args[i] = words[i]
			} else {
				args[i] = neutralWords[rng.Intn(len(neutralWords))]
			}
		}
		body = append(body, fmt.Sprintf(frame, args...))
	}
	for _, w := range catWords {
		use(bodyFrames[rng.Intn(len(bodyFrames))], w)
	}
	for _, w := range aspWords {
		use(bodyFrames[rng.Intn(len(bodyFrames))], w)
	}
	// Distractor: occasionally mention a word from a different category
	// concept — real documents stray off-topic, and this keeps semantic
	// classification genuinely imperfect.
	if rng.Float64() < 0.08 {
		others := lexicon.Names(p.catClass)
		other := others[rng.Intn(len(others))]
		if other != h.Category {
			if ws := pickWords(rng, other, 1); len(ws) == 1 {
				use("Someone also mentioned %s but that was off topic.", ws[0])
			}
		}
	}
	// Neutral filler.
	for i := 0; i < 1+rng.Intn(2); i++ {
		use(bodyFrames[rng.Intn(len(bodyFrames))])
	}
	rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })

	tags := []string{neutralWords[rng.Intn(len(neutralWords))]}
	if rng.Float64() < 0.5 {
		tags = append(tags, catWords[rng.Intn(len(catWords))])
	}
	if rng.Float64() < 0.35 {
		tags = append(tags, aspWords[rng.Intn(len(aspWords))])
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Title: %s\n", title)
	fmt.Fprintf(&b, "Views: %d\n", h.Views)
	fmt.Fprintf(&b, "Score: %d\n", h.Score)
	fmt.Fprintf(&b, "Posted: %d\n", h.Year)
	fmt.Fprintf(&b, "Tags: %s\n", strings.Join(tags, ", "))
	fmt.Fprintf(&b, "Body: %s", strings.Join(body, " "))
	return title, b.String()
}
