package llm

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"unify/internal/corpus"
)

// Reference implementations: the call path as it was written before it
// stopped splitting, copying and allocating. The differential tests and
// fuzz targets hold Request, ParsePrompt, TaskOf, CountTokens, chance and
// pick to them bit for bit.

func refBuildPrompt(task string, fields map[string]string) string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "#TASK %s\n", task)
	for _, k := range keys {
		fmt.Fprintf(&b, "#FIELD %s\n%s\n", k, fields[k])
	}
	b.WriteString("#END")
	return b.String()
}

func refParsePrompt(prompt string) (task string, fields map[string]string, ok bool) {
	lines := strings.Split(prompt, "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "#TASK ") {
		return "", nil, false
	}
	task = strings.TrimSpace(strings.TrimPrefix(lines[0], "#TASK "))
	if task == "" {
		return "", nil, false
	}
	fields = make(map[string]string)
	var key string
	var val []string
	flush := func() {
		if key != "" {
			fields[key] = strings.Join(val, "\n")
		}
		key, val = "", nil
	}
	for _, ln := range lines[1:] {
		switch {
		case strings.HasPrefix(ln, "#FIELD "):
			flush()
			key = strings.TrimSpace(strings.TrimPrefix(ln, "#FIELD "))
		case ln == "#END":
			flush()
			return task, fields, true
		default:
			val = append(val, ln)
		}
	}
	flush()
	return task, fields, true
}

func refCountTokens(s string) int {
	n := len(strings.Fields(s))
	return n + n/3
}

func refChance(seed uint64, p float64, keys ...string) bool {
	if p <= 0 {
		return false
	}
	h := fnv.New64a()
	var sb [8]byte
	for i := 0; i < 8; i++ {
		sb[i] = byte(seed >> (8 * i))
	}
	h.Write(sb[:])
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	v := float64(h.Sum64()>>11) / (1 << 53)
	return v < p
}

func refPick(seed uint64, n int, keys ...string) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	var sb [8]byte
	for i := 0; i < 8; i++ {
		sb[i] = byte(seed >> (8 * i))
	}
	h.Write(sb[:])
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{1})
	}
	return int(h.Sum64() % uint64(n))
}

// checkPromptAgainstReference is shared by the table test and
// FuzzParsePrompt.
func checkPromptAgainstReference(t *testing.T, prompt string) {
	t.Helper()
	task, fields, ok := ParsePrompt(prompt)
	rTask, rFields, rOK := refParsePrompt(prompt)
	if ok != rOK || task != rTask || !reflect.DeepEqual(fields, rFields) {
		t.Fatalf("ParsePrompt(%q) = %q %q %v, reference %q %q %v", prompt, task, fields, ok, rTask, rFields, rOK)
	}
	if got := TaskOf(prompt); got != rTask {
		t.Fatalf("TaskOf(%q) = %q, reference task %q (ok=%v)", prompt, got, rTask, rOK)
	}
	if got, want := CountTokens(prompt), refCountTokens(prompt); got != want {
		t.Fatalf("CountTokens(%q) = %d, reference %d", prompt, got, want)
	}
}

// trickyPrompts are the shapes the line-free parser could get wrong.
var trickyPrompts = []string{
	"",
	"\n",
	"#TASK",
	"#TASK ",
	"#TASK   \t ",
	"#TASK \n#FIELD a\nv\n#END",
	"#TASK t",
	"#TASK t\n",
	"#TASK  spaced task \r\n#FIELD a\nv",
	" #TASK t\n#END",
	"#TASK t\n#END",
	"#TASK t\n#END\n#FIELD late\nignored",
	"#TASK t\nstray line before any field\n#FIELD a\nv\n#END",
	"#TASK t\n#FIELD a\n#END",                         // no value lines
	"#TASK t\n#FIELD a\n\n#END",                       // one empty value line
	"#TASK t\n#FIELD a\n\n\n#END",                     // two empty value lines
	"#TASK t\n#FIELD a\nno end",                       // no #END
	"#TASK t\n#FIELD a\nno end\n",                     // no #END, trailing newline
	"#TASK t\n#FIELD a",                               // ends on the directive
	"#TASK t\n#FIELD a\n1\n#FIELD a\n2\n#END",         // duplicate name: last wins
	"#TASK t\n#FIELD a\n1\n#FIELD a\n#END",            // duplicate name, emptied
	"#TASK t\n#FIELD \ndropped\n#FIELD b\nkept\n#END", // empty name
	"#TASK t\n#FIELD   \ndropped\n#END",
	"#TASK t\n#FIELD  padded name \nv\n#END",
	"#TASK t\n#FIELD\nnot a directive: no space\n#END",
	"#TASK t\n#FIELD a\nx #FIELD b\n #END\n#END \n#ENDING\n#END",
	"#TASK t\n#FIELD a\n#TASK inner\n#END",
	"#TASK t\r\n#FIELD a\r\nv\r\n#END\r\n",
	"#TASK t\n#FIELD a\nnon-breaking spacenext line em\n#END",
	"#TASK t\n#FIELD a\n\xff\xfe bad bytes \xc3\n#END",
}

func TestPromptReadersMatchReference(t *testing.T) {
	for _, p := range trickyPrompts {
		checkPromptAgainstReference(t, p)
	}
	ds, err := corpus.GenerateN("sports", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range batchPrompts(ds) {
		checkPromptAgainstReference(t, p)
	}
}

// TestTaskOfEmptyExactlyWhereParseFails pins what the wrappers rely on:
// Traced and Resilient label a call "unknown" precisely when the prompt is
// malformed.
func TestTaskOfEmptyExactlyWhereParseFails(t *testing.T) {
	for _, p := range []string{"", "plain text", "#TASK", "#TASK ", "#TASK  \t \n#FIELD a\nv\n#END", "#FIELD a\nv\n#TASK late"} {
		if _, _, ok := ParsePrompt(p); ok || TaskOf(p) != "" {
			t.Errorf("prompt %q: ParsePrompt ok=%v, TaskOf=%q; want malformed and empty", p, ok, TaskOf(p))
		}
	}
	if got := TaskOf("#TASK  filter_doc \n#END"); got != "filter_doc" {
		t.Errorf("TaskOf trimmed to %q", got)
	}
}

func TestDrawsMatchHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randKey := func() string {
		b := make([]byte, rng.Intn(120))
		rng.Read(b)
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		cfg := DefaultSimConfig()
		cfg.Seed = rng.Uint64()
		if i == 0 {
			cfg.Seed = 0
		}
		s := NewSim(cfg)
		keys := make([]string, rng.Intn(5))
		for j := range keys {
			keys[j] = randKey()
		}
		// Probabilities straddling the draw exercise both outcomes; the
		// exact values 0 and 1 exercise the guards.
		for _, p := range []float64{-1, 0, 1e-9, 0.015, 0.5, 0.985, 1, 2} {
			if got, want := s.chance(p, keys...), refChance(cfg.Seed, p, keys...); got != want {
				t.Fatalf("chance(seed=%d, p=%g, %q) = %v, hash/fnv %v", cfg.Seed, p, keys, got, want)
			}
		}
		for _, n := range []int{-3, 0, 1, 2, 3, 7, 1000, 1 << 40} {
			if got, want := s.pick(n, keys...), refPick(cfg.Seed, n, keys...); got != want {
				t.Fatalf("pick(seed=%d, n=%d, %q) = %d, hash/fnv %d", cfg.Seed, n, keys, got, want)
			}
		}
	}
}

// batchPrompts builds the four 16-document operator prompts the executor
// issues most, over the dataset's first 16 documents.
func batchPrompts(ds *corpus.Dataset) map[string]string {
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = ds.Docs[i].Text
	}
	docs := JoinDocs(texts)
	return map[string]string{
		"filter_doc":     BuildPrompt("filter_doc", map[string]string{"condition": "related to injury", "doc": texts[0]}),
		"filter_batch":   BuildPrompt("filter_batch", map[string]string{"condition": "related to injury", "docs": docs}),
		"classify_batch": BuildPrompt("classify_batch", map[string]string{"class": "topic", "docs": docs}),
		"extract_batch":  BuildPrompt("extract_batch", map[string]string{"target": "sport", "docs": docs}),
	}
}

// filterBatchAllocCeiling bounds the allocations of one Sim.Complete over
// a 16-document filter_batch prompt: 6 at this commit (the field map, the
// document and verdict slices, the reply, the condition's regex captures;
// 13 under the race detector), about 7 700 on the old path. One allocation
// per document creeping back in adds 16 and trips it.
const filterBatchAllocCeiling = 20

func TestCallPathAllocations(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 16)
	if err != nil {
		t.Fatal(err)
	}
	prompt := batchPrompts(ds)["filter_batch"]
	s := NewSim(DefaultSimConfig())
	ctx := context.Background()
	doc := ds.Docs[0].Text

	var task string
	var n, k int
	var b bool
	zero := map[string]func(){
		"TaskOf":      func() { task = TaskOf(prompt) },
		"CountTokens": func() { n = CountTokens(prompt) },
		"chance":      func() { b = s.chance(0.5, "filter", "related to injury", docKey(doc)) },
		"pick":        func() { k = s.pick(7, "corrupt", doc) },
	}
	for name, fn := range zero {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, allocs)
		}
	}
	if task != "filter_batch" || n == 0 || k < 0 || k >= 7 {
		t.Fatalf("guards ran on the wrong inputs: task=%q tokens=%d pick=%d chance=%v", task, n, k, b)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Complete(ctx, prompt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > filterBatchAllocCeiling {
		t.Errorf("Sim.Complete(filter_batch, 16 docs) allocates %v times, ceiling %d", allocs, filterBatchAllocCeiling)
	}
	t.Logf("Sim.Complete(filter_batch, 16 docs): %v allocs", allocs)

	checkCachedDoAllocations(t, ds)
}

var benchTask string

func BenchmarkTaskOf(b *testing.B) {
	ds, err := corpus.GenerateN("sports", 16)
	if err != nil {
		b.Fatal(err)
	}
	prompt := batchPrompts(ds)["filter_batch"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTask = TaskOf(prompt)
	}
}
