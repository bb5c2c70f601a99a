package llm

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
)

// Continuous batching support: the Batching wrapper stamps every
// response of a batchable per-document task with a compatibility key.
// Calls with equal keys — same task family, same model, same prompt
// template (field structure) — are co-schedulable: the virtual-time
// scheduler may coalesce them into one batched invocation occupying a
// single slot, amortizing the template's prefill and sharing decode
// bandwidth. The wrapper never alters answers: it annotates metadata
// only, so answer bytes are identical with batching on or off.

// batchableTasks is the set of per-document operator families whose
// prompts share a fixed template across documents and queries. Planner,
// baseline, and aggregate tasks are excluded: their prompts are
// query-shaped, not document-shaped, and rarely repeat.
var batchableTasks = map[string]bool{
	"filter_batch":   true,
	"filter_doc":     true,
	"filter_label":   true,
	"classify_batch": true,
	"classify_doc":   true,
	"extract_batch":  true,
	"extract_doc":    true,
}

// payloadFields are prompt fields whose values are per-call payload
// (document text) rather than template text. Everything else — the
// condition, class list, target description — is small per-query
// scaffold counted into the template's prefill share.
var payloadFields = map[string]bool{"doc": true, "docs": true}

// BatchableTask reports whether the task family participates in
// cross-query batching.
func BatchableTask(task string) bool { return batchableTasks[task] }

// BatchKeyFor computes the co-scheduling compatibility key for a prompt
// issued against the named model, plus the token count of the prompt's
// template scaffold (directive, field names, and non-payload field
// values — the prefill a batch pays only once, at the largest member's
// size) and the payload identity key. ok is false for prompts that must
// never coalesce: unparsable prompts and non-batchable task families.
//
// The key is a pure function of (task, model, sorted field names):
// per-document payloads and per-query parameter values differ across
// members of one batch by design — that is what makes the batching
// cross-query — while the task family, model, and field structure pin
// the template.
//
// The payload key is a pure function of the payload field values (the
// doc/docs text). Two co-batched calls with equal payload keys carry the
// same documents — concurrent queries scanning the same corpus chunk —
// so the batched invocation prefills that payload once for all of them,
// extending the cache layer's singleflight from identical calls to
// co-schedulable ones. It is empty when the prompt has no payload
// fields.
func BatchKeyFor(prompt, model string) (key, payloadKey string, templateTokens int, ok bool) {
	task, fields, pok := ParsePrompt(prompt)
	if !pok || !batchableTasks[task] {
		return "", "", 0, false
	}
	names := make([]string, 0, len(fields))
	scaffold := "#TASK " + task
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	h := fnv.New64a()
	hasPayload := false
	for _, k := range names {
		scaffold += " #FIELD " + k
		if payloadFields[k] {
			hasPayload = true
			io.WriteString(h, "#PAYLOAD ")
			io.WriteString(h, k)
			io.WriteString(h, " ")
			io.WriteString(h, fields[k])
		} else {
			scaffold += " " + fields[k]
		}
	}
	key = task + "|" + model + "|" + strings.Join(names, ",")
	if hasPayload {
		payloadKey = fmt.Sprintf("%016x", h.Sum64())
	}
	return key, payloadKey, CountTokens(scaffold), true
}

// Batching wraps a Client and stamps batchable responses with their
// compatibility key and template token count. It is installed at the
// top of the worker client stack when Config.Batching is on, beneath
// the executor's per-query Recorder, which copies the metadata onto the
// recorded calls for the scheduler to read. Text, tokens, and durations
// are untouched.
type Batching struct {
	inner Client
}

// NewBatching wraps inner with batch-key stamping.
func NewBatching(inner Client) *Batching { return &Batching{inner: inner} }

// Complete implements Client.
func (b *Batching) Complete(ctx context.Context, prompt string) (Response, error) {
	return b.Do(ctx, RawRequest(prompt))
}

// Do implements Doer.
func (b *Batching) Do(ctx context.Context, req *Request) (Response, error) {
	resp, err := Do(ctx, b.inner, req)
	if err != nil {
		return resp, err
	}
	// Cached responses never occupy a slot, so there is nothing to
	// coalesce; leave them unstamped. An uncached response means a model
	// read the prompt, so the text BatchKeyFor parses is already rendered.
	if !resp.Cached {
		if key, pk, tmpl, ok := BatchKeyFor(req.Prompt(), b.inner.Profile().Name); ok {
			resp.BatchKey = key
			resp.PayloadKey = pk
			resp.TemplateTokens = tmpl
		}
	}
	return resp, nil
}

// Profile implements Client.
func (b *Batching) Profile() Profile { return b.inner.Profile() }

// Unwrap returns the wrapped client.
func (b *Batching) Unwrap() Client { return b.inner }

var _ Client = (*Batching)(nil)
