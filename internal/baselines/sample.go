package baselines

import (
	"context"
	"strconv"
	"strings"

	"unify/internal/docstore"
	"unify/internal/llm"
)

// Sample is baseline (4): the model enumerates a fixed fraction of the
// data (paper: 20%) chunk by chunk, emitting intermediate partial answers
// that are finally combined (scaling count-like quantities to the full
// population). Its chunks form a strictly sequential chain — the paper's
// explanation for its high latency — and sampling plus extrapolation
// caps its accuracy.
type Sample struct {
	Store  *docstore.Store
	Client llm.Client
	// Frac is the sampled fraction (paper: 0.2).
	Frac float64
	// Chunk is the number of documents per model invocation.
	Chunk int
}

// NewSample returns the baseline with the paper's 20% setting.
func NewSample(store *docstore.Store, client llm.Client) *Sample {
	return &Sample{Store: store, Client: client, Frac: 0.2, Chunk: 6}
}

// Name implements Baseline.
func (b *Sample) Name() string { return "Sample" }

// Run implements Baseline.
func (b *Sample) Run(ctx context.Context, query string) (Result, error) {
	ids := b.Store.IDs()
	n := len(ids)
	take := int(float64(n) * b.Frac)
	if take < 1 {
		take = 1
	}
	// Deterministic systematic sample.
	step := n / take
	if step < 1 {
		step = 1
	}
	var sample []int
	for i := 0; i < n && len(sample) < take; i += step {
		sample = append(sample, ids[i])
	}

	rec := llm.NewRecorder(b.Client)
	var partials []string
	for start := 0; start < len(sample); start += b.Chunk {
		end := start + b.Chunk
		if end > len(sample) {
			end = len(sample)
		}
		texts := docTexts(b.Store, sample[start:end])
		// Each step re-emits the cumulated intermediate results (the
		// "iteratively outputs intermediate results" of the paper),
		// so both prompt and output grow as the scan progresses.
		resp, err := llm.Do(ctx, rec, llm.NewRequest("sample_chunk",
			llm.Text("question", query),
			llm.Docs("docs", texts),
			llm.Text("state", strings.Join(partials, "; ")),
		))
		if err != nil {
			return Result{}, err
		}
		parts := strings.Split(resp.Text, ";")
		partials = append(partials[:0], make([]string, 0, len(parts))...)
		for _, p := range parts {
			if p = strings.TrimSpace(p); p != "" {
				partials = append(partials, p)
			}
		}
	}
	scale := float64(n) / float64(len(sample))
	resp, err := llm.Do(ctx, rec, llm.NewRequest("sample_combine",
		llm.Text("question", query),
		llm.Text("partials", strings.Join(partials, "\n")),
		llm.Text("scale", trimFloat(scale)),
	))
	if err != nil {
		return Result{}, err
	}
	calls := rec.Calls()
	// The chunk chain is sequential: each step cumulates the previous
	// intermediate result.
	return Result{
		Text:     strings.TrimSpace(resp.Text),
		Latency:  sumDur(calls),
		LLMCalls: len(calls),
	}, nil
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', 4, 64)
}
