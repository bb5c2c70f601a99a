package baselines

import (
	"context"
	"encoding/json"
	"time"

	"unify/internal/docstore"
	"unify/internal/llm"
)

// RAG is the basic retrieval-augmented generation pipeline: retrieve the
// top-100 related sentences by embedding similarity and generate an
// answer from them. It fails on aggregate analytics because the retrieved
// context never covers the corpus — exactly the limitation §II-B
// describes.
type RAG struct {
	Store  *docstore.Store
	Client llm.Client
	// TopSentences is the retrieval depth (paper: 100).
	TopSentences int
	// MaxDocs caps the context after sentence-to-document expansion.
	MaxDocs int
}

// NewRAG returns the baseline with the paper's settings.
func NewRAG(store *docstore.Store, client llm.Client) *RAG {
	return &RAG{Store: store, Client: client, TopSentences: 100, MaxDocs: 20}
}

// Name implements Baseline.
func (r *RAG) Name() string { return "RAG" }

// Run implements Baseline.
func (r *RAG) Run(ctx context.Context, query string) (Result, error) {
	sents := r.Store.SearchSentences(query, r.TopSentences)
	docs := contextDocsForSentences(r.Store, sents, r.MaxDocs)
	text, calls, err := generate(ctx, r.Client, query, docs)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Text:     text,
		Latency:  retrievalOverhead + sumDur(calls),
		LLMCalls: len(calls),
	}, nil
}

// RecurRAG extends RAG with iterative query decomposition: the model
// decomposes the query into sub-queries, each sub-query retrieves its own
// context, and the union feeds the final generation.
type RecurRAG struct {
	Store  *docstore.Store
	Client llm.Client
	// PerSub is the per-sub-query document retrieval depth.
	PerSub  int
	MaxDocs int
}

// NewRecurRAG returns the baseline with default settings.
func NewRecurRAG(store *docstore.Store, client llm.Client) *RecurRAG {
	return &RecurRAG{Store: store, Client: client, PerSub: 60, MaxDocs: 150}
}

// Name implements Baseline.
func (r *RecurRAG) Name() string { return "RecurRAG" }

// Run implements Baseline.
func (r *RecurRAG) Run(ctx context.Context, query string) (Result, error) {
	rec := llm.NewRecorder(r.Client)
	resp, err := llm.Do(ctx, rec, llm.NewRequest("decompose",
		llm.Text("question", query),
	))
	if err != nil {
		return Result{}, err
	}
	var subs []string
	if err := json.Unmarshal([]byte(resp.Text), &subs); err != nil || len(subs) == 0 {
		subs = []string{query}
	}
	seen := map[int]bool{}
	var ids []int
	for _, sub := range subs {
		for _, hit := range r.Store.SearchDocsExact(sub, r.PerSub) {
			if !seen[hit.ID] {
				seen[hit.ID] = true
				ids = append(ids, hit.ID)
				if len(ids) >= r.MaxDocs {
					break
				}
			}
		}
	}
	text, calls, err := generate(ctx, r.Client, query, docTexts(r.Store, ids))
	if err != nil {
		return Result{}, err
	}
	allCalls := append(rec.Calls(), calls...)
	lat := retrievalOverhead*time.Duration(len(subs)) + sumDur(allCalls)
	return Result{Text: text, Latency: lat, LLMCalls: len(allCalls)}, nil
}
