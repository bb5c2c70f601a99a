package llm

import (
	"context"
	"hash/maphash"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"unify/internal/cache"
	"unify/internal/corpus"
)

// specRequest decodes a fuzz string into a request description: fields
// are separated by NUL, and a field is its name followed by its parts,
// separated by \x01. Later fields with a name already seen are dropped —
// a request's field names are distinct, as a map's keys are.
func specRequest(spec string) []Field {
	var fields []Field
	seen := map[string]bool{}
	if spec == "" {
		return nil
	}
	for _, f := range strings.Split(spec, "\x00") {
		pieces := strings.Split(f, "\x01")
		if seen[pieces[0]] {
			continue
		}
		seen[pieces[0]] = true
		fields = append(fields, Field{Name: pieces[0], Parts: pieces[1:]})
	}
	return fields
}

// joined is the map BuildPrompt takes for the same fields.
func joined(fields []Field) map[string]string {
	m := make(map[string]string, len(fields))
	for _, f := range fields {
		m[f.Name] = JoinDocs(f.Parts)
	}
	return m
}

func cloneFields(fields []Field) []Field {
	out := make([]Field, len(fields))
	copy(out, fields)
	return out
}

var hashSeed = maphash.MakeSeed()

func digestOf(write func(*maphash.Hash)) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	write(&h)
	return h.Sum64()
}

// directiveFree reports whether ParsePrompt reads s back as one value:
// none of its lines is a directive.
func directiveFree(s string) bool {
	for _, ln := range strings.Split(s, "\n") {
		if strings.HasPrefix(ln, "#FIELD ") || ln == "#END" {
			return false
		}
	}
	return true
}

func cleanName(s string) bool {
	return s != "" && s == strings.TrimSpace(s) && !strings.Contains(s, "\n")
}

// checkRequest holds one request to the string path it replaces.
func checkRequest(t *testing.T, task string, fields []Field) string {
	t.Helper()
	want := refBuildPrompt(task, joined(fields))
	req := NewRequest(task, cloneFields(fields)...)

	// Everything a wrapper may ask before the text exists.
	if got := req.Len(); got != len(want) {
		t.Fatalf("Len() = %d, rendered length %d", got, len(want))
	}
	if got, ref := req.Task(), TaskOf(want); got != ref {
		t.Fatalf("Task() = %q, TaskOf(prompt) = %q", got, ref)
	}
	if got, ref := digestOf(req.HashTo), digestOf(func(h *maphash.Hash) { h.WriteString(want) }); got != ref {
		t.Fatalf("streamed digest %x, digest of the rendered prompt %x", got, ref)
	}
	key := &cacheKey{model: "m\x1f", body: req.body}
	full := "m\x1f\x1f" + want
	if key.Len() != len(full) || digestOf(key.HashTo) != digestOf(func(h *maphash.Hash) { h.WriteString(full) }) {
		t.Fatalf("cache key is not priced and hashed as model+sep+prompt")
	}

	if got := req.Prompt(); got != want {
		t.Fatalf("Prompt() = %q\nBuildPrompt  = %q", got, want)
	}
	if got := BuildPrompt(task, joined(fields)); got != want {
		t.Fatalf("BuildPrompt = %q\nreference   = %q", got, want)
	}

	// ParsePrompt reads the rendering as it reads any string, and reads
	// back exactly what went in when nothing in it looks like a directive.
	checkPromptAgainstReference(t, want)
	clean := cleanName(task)
	for _, f := range fields {
		clean = clean && cleanName(f.Name) && directiveFree(JoinDocs(f.Parts))
	}
	if clean {
		gotTask, gotFields, ok := ParsePrompt(want)
		if !ok || gotTask != task || !reflect.DeepEqual(gotFields, joined(fields)) {
			t.Fatalf("ParsePrompt(Prompt()) = %q %q %v, built from %q %q", gotTask, gotFields, ok, task, joined(fields))
		}
	}

	// The same bytes chunked three ways are one request.
	whole := make([]Field, len(fields))
	for i, f := range fields {
		whole[i] = Text(f.Name, JoinDocs(f.Parts))
	}
	for name, other := range map[string]*Request{
		"itself":          NewRequest(task, cloneFields(fields)...),
		"joined parts":    NewRequest(task, whole...),
		"the raw request": RawRequest(want),
	} {
		if !NewRequest(task, cloneFields(fields)...).Equal(other) || !other.Equal(NewRequest(task, cloneFields(fields)...)) {
			t.Fatalf("request does not equal %s", name)
		}
		if digestOf(other.HashTo) != digestOf(req.HashTo) {
			t.Fatalf("%s hashes differently", name)
		}
	}
	return want
}

// FuzzRequestPrompt holds Request to BuildPrompt+JoinDocs as they were
// (reference_test.go): same bytes, same length, same task, same digest
// without rendering, and Equal exactly where the renderings are equal —
// however the two sides are chunked.
func FuzzRequestPrompt(f *testing.F) {
	f.Add("filter_batch", "condition\x01related to injury\x00docs\x01Title: a\nBody: b\x01Title: c", "filter_batch", "docs\x01Title: a\nBody: b\x01Title: c\x00condition\x01related to injury")
	f.Add("filter_doc", "doc\x01text\x00condition\x01c", "filter_doc", "doc\x01text")
	f.Add("generate", "context\x00question\x01q", "generate", "context\x01\x00question\x01q")
	// The same bytes behind different part boundaries.
	f.Add("t", "a\x01x"+DocSep+"y\x01z", "t", "a\x01x\x01y"+DocSep+"z")
	// Pieces that imitate the format.
	f.Add("t\n#FIELD a\nv", "b\x01w", "t", "a\x01v\x00b\x01w")
	f.Add(" spaced \n", "\x01\x01", "", "")
	f.Add("t", "a\x01#END\x00 b \x01#FIELD c\nd", "t", "a\x01#END")
	f.Add("", "", "t", "x\x00x\x01dup dropped")
	f.Fuzz(func(t *testing.T, task1, spec1, task2, spec2 string) {
		f1, f2 := specRequest(spec1), specRequest(spec2)
		p1 := checkRequest(t, task1, f1)
		p2 := checkRequest(t, task2, f2)
		a, b := NewRequest(task1, f1...), NewRequest(task2, f2...)
		if got := a.Equal(b); got != (p1 == p2) || b.Equal(a) != got {
			t.Fatalf("Equal = %v, renderings equal = %v\n%q\n%q", got, p1 == p2, p1, p2)
		}
		if got := a.Equal(RawRequest(p2)); got != (p1 == p2) || RawRequest(p1).Equal(b) != got {
			t.Fatalf("Equal against a raw request = %v, renderings equal = %v", got, p1 == p2)
		}
	})
}

func TestRequestMatchesBuildPrompt(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 16)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = ds.Docs[i].Text
	}
	prompts := batchPrompts(ds)
	for task, fields := range map[string][]Field{
		"filter_doc":     {Text("doc", texts[0]), Text("condition", "related to injury")},
		"filter_batch":   {Docs("docs", texts), Text("condition", "related to injury")},
		"classify_batch": {Text("class", "topic"), Docs("docs", texts)},
		"extract_batch":  {Text("target", "sport"), Docs("docs", texts)},
	} {
		if got := checkRequest(t, task, fields); got != prompts[task] {
			t.Errorf("%s request renders %q, executor prompt is %q", task, got, prompts[task])
		}
	}
	checkRequest(t, "no_fields", nil)
	checkRequest(t, "empty_batch", []Field{Docs("docs", nil), Docs("more", []string{})})
}

// TestRawRequestIsThePrompt pins the adapter every wrapper's Complete
// goes through.
func TestRawRequestIsThePrompt(t *testing.T) {
	for _, p := range trickyPrompts {
		r := RawRequest(p)
		if r.Prompt() != p || r.Len() != len(p) || r.Task() != TaskOf(p) {
			t.Errorf("RawRequest(%q): Prompt %q, Len %d, Task %q", p, r.Prompt(), r.Len(), r.Task())
		}
		if digestOf(r.HashTo) != digestOf(func(h *maphash.Hash) { h.WriteString(p) }) {
			t.Errorf("RawRequest(%q) hashes differently from the string", p)
		}
	}
}

// quiet is a foreign base client that allocates nothing and keeps what
// it was sent.
type quiet struct {
	calls int
	last  string
}

func (q *quiet) Complete(_ context.Context, prompt string) (Response, error) {
	q.calls++
	q.last = prompt
	return Response{Text: "yes", InTokens: 1, OutTokens: 1, Dur: 1}, nil
}

func (q *quiet) Profile() Profile { return Profile{Name: "quiet"} }

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The cost of a warm hit on a 16-document filter_batch request through
// Cached.Do: the request (three objects) and the key — the hasher is
// pooled — and no copy of the 5 KB prompt, of which the string path made
// four.
const (
	warmHitAllocCeiling = 4
	warmHitByteCeiling  = 512
)

// checkCachedDoAllocations is the cache's share of
// TestCallPathAllocations.
func checkCachedDoAllocations(t *testing.T, ds *corpus.Dataset) {
	t.Helper()
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = ds.Docs[i].Text
	}
	want := batchPrompts(ds)["filter_batch"]
	base := &quiet{}
	c := NewCached(base, cache.NewLayer[Response](cache.New(64<<20), "llm", ResponseCost))
	ctx := context.Background()
	do := func(cond string) {
		resp, err := c.Do(ctx, NewRequest("filter_batch", Text("condition", cond), Docs("docs", texts)))
		if err != nil || resp.Text != "yes" {
			t.Fatalf("Do = %+v, %v", resp, err)
		}
	}

	do("related to injury")
	if base.calls != 1 || base.last != want {
		t.Fatalf("base client saw %d calls, last prompt %q; want the executor's prompt once", base.calls, base.last)
	}
	warm := func() { do("related to injury") }
	allocs, bytes := testing.AllocsPerRun(100, warm), bytesPerRun(100, warm)
	t.Logf("warm Cached.Do hit, %d-byte prompt: %v allocs, %.0f bytes", len(want), allocs, bytes)
	if base.calls != 1 {
		t.Fatalf("warm lookups reached the base client (%d calls)", base.calls)
	}
	if allocs > warmHitAllocCeiling || bytes >= warmHitByteCeiling {
		t.Errorf("warm hit allocates %v objects / %.0f bytes; ceilings %d objects, under %d bytes", allocs, bytes, warmHitAllocCeiling, warmHitByteCeiling)
	}

	// A cold miss renders the prompt once — for the model — and retains
	// none of it: under two prompts' worth of bytes per call, entry,
	// list element and map growth included.
	n := 0
	cold := func() { n++; do("related to injury " + strconv.Itoa(n)) }
	coldBytes := bytesPerRun(100, cold)
	t.Logf("cold Cached.Do miss: %.0f bytes", coldBytes)
	if coldBytes < float64(len(want)) || coldBytes >= 2*float64(len(want)) {
		t.Errorf("cold miss allocates %.0f bytes for a %d-byte prompt; want one rendering", coldBytes, len(want))
	}
	if base.calls != 1+n {
		t.Errorf("base client saw %d calls, want %d", base.calls, 1+n)
	}
}
