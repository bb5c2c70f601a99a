// Package baselines implements the six comparison methods of the paper's
// §VII-A evaluation: RAG, RecurRAG, LLMPlan, Sample, Exhaust, and Manual.
// Each consumes only the query text and the document store (never ground
// truth), and reports a simulated latency consistent with its execution
// pattern on the 4-slot machine model.
package baselines

import (
	"context"
	"strings"
	"time"

	"unify/internal/docstore"
	"unify/internal/llm"
)

// Result is one baseline answer.
type Result struct {
	Text     string
	Latency  time.Duration
	LLMCalls int
}

// Baseline answers natural-language analytics queries.
type Baseline interface {
	Name() string
	Run(ctx context.Context, query string) (Result, error)
}

// sumDur adds up recorded call durations (sequential execution model).
func sumDur(calls []llm.Call) time.Duration {
	var d time.Duration
	for _, c := range calls {
		d += c.Dur
	}
	return d
}

// docTexts fetches rendered texts for store ids.
func docTexts(store *docstore.Store, ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if d, ok := store.Doc(id); ok {
			out = append(out, d.Text)
		}
	}
	return out
}

// contextDocsForSentences expands retrieved sentences to their unique
// source documents, capped.
func contextDocsForSentences(store *docstore.Store, sents []docstore.Sentence, maxDocs int) []string {
	seen := map[int]bool{}
	var ids []int
	for _, s := range sents {
		if !seen[s.DocID] {
			seen[s.DocID] = true
			ids = append(ids, s.DocID)
			if len(ids) >= maxDocs {
				break
			}
		}
	}
	return docTexts(store, ids)
}

func generate(ctx context.Context, client llm.Client, question string, docs []string) (string, []llm.Call, error) {
	rec := llm.NewRecorder(client)
	resp, err := llm.Do(ctx, rec, llm.NewRequest("generate",
		llm.Text("question", question),
		llm.Docs("context", docs),
	))
	if err != nil {
		return "", nil, err
	}
	return strings.TrimSpace(resp.Text), rec.Calls(), nil
}

// retrievalOverhead models embedding the query and probing the vector
// index (sub-second, per paper's RAG latency floor).
const retrievalOverhead = 400 * time.Millisecond
