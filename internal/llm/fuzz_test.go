package llm

import (
	"context"
	"errors"
	"testing"
	"unicode/utf8"
)

// FuzzParsePrompt checks the prompt wire format: parsing arbitrary bytes
// must never panic, ParsePrompt, TaskOf and CountTokens must agree with
// their split-based references (reference_test.go), and every successfully
// parsed prompt must round-trip through BuildPrompt unchanged.
func FuzzParsePrompt(f *testing.F) {
	f.Add(BuildPrompt("filter_doc", map[string]string{"condition": "related to injury", "doc": "text"}))
	f.Add(BuildPrompt("generate", map[string]string{"q": "multi\nline\nvalue"}))
	f.Add(BuildPrompt("t", map[string]string{"": ""}))
	f.Add("#TASK demo")
	f.Add("#TASK ")
	f.Add("plain text")
	f.Add("")
	f.Add("#FIELD a\nvalue\n#TASK late")
	for _, p := range trickyPrompts {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prompt string) {
		checkPromptAgainstReference(t, prompt)
		task, fields, ok := ParsePrompt(prompt)
		if !ok {
			return
		}
		if task == "" {
			t.Fatal("ok parse with empty task")
		}
		rebuilt := BuildPrompt(task, fields)
		task2, fields2, ok2 := ParsePrompt(rebuilt)
		if !ok2 || task2 != task {
			t.Fatalf("round trip lost task: %q -> %q (ok=%v)", task, task2, ok2)
		}
		if len(fields2) != len(fields) {
			t.Fatalf("round trip changed field count: %d -> %d", len(fields), len(fields2))
		}
		for k, v := range fields {
			if fields2[k] != v {
				t.Fatalf("round trip changed field %q: %q -> %q", k, v, fields2[k])
			}
		}
	})
}

// FuzzBatchKey checks the batching compatibility key (satellite of the
// continuous-batching PR): computing keys for arbitrary prompt pairs must
// never panic; key equality must be symmetric, stable across repeated
// calls, and must only relate prompts of the same batchable task family,
// model, and field structure — incompatible prompts never coalesce.
func FuzzBatchKey(f *testing.F) {
	f.Add(
		BuildPrompt("filter_doc", map[string]string{"condition": "related to injury", "doc": "text"}),
		BuildPrompt("filter_doc", map[string]string{"condition": "mentions football", "doc": "other"}),
		"sim-llama-8b",
	)
	f.Add(
		BuildPrompt("classify_batch", map[string]string{"classes": "a,b", "docs": "x"}),
		BuildPrompt("extract_batch", map[string]string{"target": "views", "docs": "x"}),
		"sim-llama-8b",
	)
	f.Add(BuildPrompt("generate", map[string]string{"q": "planner task"}), "plain text", "m")
	f.Add("", "#TASK filter_doc", "")
	f.Fuzz(func(t *testing.T, p1, p2, model string) {
		k1, pk1, tt1, ok1 := BatchKeyFor(p1, model)
		k2, pk2, tt2, ok2 := BatchKeyFor(p2, model)

		// Stability: the key is a pure function of its inputs.
		if k1b, pk1b, tt1b, ok1b := BatchKeyFor(p1, model); k1b != k1 || pk1b != pk1 || tt1b != tt1 || ok1b != ok1 {
			t.Fatalf("BatchKeyFor unstable: (%q,%q,%d,%v) then (%q,%q,%d,%v)", k1, pk1, tt1, ok1, k1b, pk1b, tt1b, ok1b)
		}

		check := func(p, k, pk string, tt int, ok bool) (task string, names map[string]bool) {
			if !ok {
				if k != "" || pk != "" || tt != 0 {
					t.Fatalf("not-ok key carries data: %q/%q/%d", k, pk, tt)
				}
				return "", nil
			}
			task, fields, pok := ParsePrompt(p)
			if !pok || !BatchableTask(task) {
				t.Fatalf("key issued for unparsable or non-batchable prompt %q (task %q)", p, task)
			}
			if tt <= 0 {
				t.Fatalf("template tokens %d for %q, want > 0", tt, p)
			}
			names = make(map[string]bool, len(fields))
			hasPayload := false
			for n := range fields {
				names[n] = true
				if n == "doc" || n == "docs" {
					hasPayload = true
				}
			}
			// Payload identity exists exactly when the prompt carries a
			// payload field.
			if (pk != "") != hasPayload {
				t.Fatalf("payload key %q but payload fields present=%v for %q", pk, hasPayload, p)
			}
			return task, names
		}
		t1, n1 := check(p1, k1, pk1, tt1, ok1)
		t2, n2 := check(p2, k2, pk2, tt2, ok2)

		// Symmetric compatibility: equal keys require same task family and
		// same field structure (and vice versa — the key has no other
		// inputs at a fixed model).
		if ok1 && ok2 {
			same := t1 == t2 && len(n1) == len(n2)
			if same {
				for n := range n1 {
					if !n2[n] {
						same = false
						break
					}
				}
			}
			if (k1 == k2) != same {
				t.Fatalf("key equality %v but structural compatibility %v:\n  %q -> %q\n  %q -> %q",
					k1 == k2, same, p1, k1, p2, k2)
			}
			// Payload singleflight soundness: identical payload fields
			// (same presence and values) must hash to identical keys.
			_, f1, _ := ParsePrompt(p1)
			_, f2, _ := ParsePrompt(p2)
			d1, dok1 := f1["doc"]
			d2, dok2 := f2["doc"]
			g1, gok1 := f1["docs"]
			g2, gok2 := f2["docs"]
			samePayload := dok1 == dok2 && gok1 == gok2 && d1 == d2 && g1 == g2 && (dok1 || gok1)
			if samePayload && pk1 != pk2 {
				t.Fatalf("equal payloads produced different payload keys: %q vs %q", pk1, pk2)
			}
		}
	})
}

// FuzzSimComplete feeds arbitrary prompts to the simulated backend: it
// must never panic or hang, and every failure must be one of the typed
// error classes.
func FuzzSimComplete(f *testing.F) {
	f.Add(BuildPrompt("filter_doc", map[string]string{"condition": "related to injury", "doc": sampleDoc}))
	f.Add(BuildPrompt("agg_list", map[string]string{"kind": "Sum", "values": "1,2,3"}))
	f.Add(BuildPrompt("compute", map[string]string{"expression": "a+b", "bindings": "a=1\nb=2"}))
	f.Add(BuildPrompt("no_such_task", nil))
	f.Add(BuildPrompt("classify_batch", map[string]string{"class": "sport", "docs": "a"}))
	f.Add("unstructured")
	f.Add("")
	f.Fuzz(func(t *testing.T, prompt string) {
		if !utf8.ValidString(prompt) {
			t.Skip()
		}
		s := testSim()
		resp, err := s.Complete(context.Background(), prompt)
		if err == nil {
			if resp.Dur < 0 || resp.OutTokens < 0 {
				t.Fatalf("negative accounting: %+v", resp)
			}
			return
		}
		var te *TaskError
		if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrUnknownTask) && !errors.As(err, &te) {
			t.Fatalf("untyped sim error: %T %v", err, err)
		}
	})
}

// FuzzSimDraws holds the allocation-free chance and pick to hash/fnv on
// arbitrary seeds and keys (reference_test.go): the noise model's draws
// decide which judgments flip, so one differing bit moves answers.
func FuzzSimDraws(f *testing.F) {
	f.Add(uint64(1), "filter", "related to injury", "Title: Knee pain", 0.015, 7)
	f.Add(uint64(0), "", "", "", 1.0, 1)
	f.Add(^uint64(0), "label", "sport\x00", "\xff\x01", 0.5, 1<<40)
	f.Fuzz(func(t *testing.T, seed uint64, k1, k2, k3 string, p float64, n int) {
		cfg := DefaultSimConfig()
		cfg.Seed = seed
		s := NewSim(cfg)
		for _, keys := range [][]string{nil, {k1}, {k1, k2}, {k1, k2, k3}} {
			if got, want := s.chance(p, keys...), refChance(seed, p, keys...); got != want {
				t.Fatalf("chance(seed=%d, p=%g, %q) = %v, hash/fnv %v", seed, p, keys, got, want)
			}
			if got, want := s.pick(n, keys...), refPick(seed, n, keys...); got != want {
				t.Fatalf("pick(seed=%d, n=%d, %q) = %d, hash/fnv %d", seed, n, keys, got, want)
			}
		}
	})
}
