package unify

import (
	"context"
	"errors"
	"testing"

	"unify/internal/corpus"
	"unify/internal/llm"
	"unify/internal/obs"
)

// brokenClient fails every call, standing in for a model backend that is
// down for one role (planner or worker).
type brokenClient struct{ llm.Client }

func (brokenClient) Complete(context.Context, string) (llm.Response, error) {
	return llm.Response{}, errors.New("backend down")
}

// TestErrorTracesHaveNoOpenSpans drives a query into an error in each
// phase — USQL parse, NL planning, optimization, execution — and requires the
// trace retained under status=error to contain no span that was left
// open: a phase that returns early must still end the span it started.
func TestErrorTracesHaveNoOpenSpans(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 150)
	if err != nil {
		t.Fatal(err)
	}
	planner := llm.NewSim(llm.SimConfig{Profile: llm.PlannerProfile(), Seed: 1})
	worker := llm.NewSim(llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1})
	cases := []struct {
		name, phase, query string
		planner, worker    llm.Client
	}{
		{"usql parse", "parse", "SELECT COUNT(*) FROM", planner, worker},
		{"planning", "planning", "How many questions are about golf?", brokenClient{planner}, worker},
		// Two chained filters: ordering them needs both selectivities, so a
		// failed SCE judgment fails the optimization.
		{"optimize", "optimize", "How many questions about tennis are related to injury?", planner, brokenClient{worker}},
		// A single filter optimizes on the selectivity prior; its
		// judgments then fail at run time, fallback plan included.
		{"execute", "execute", "How many questions are about golf?", planner, brokenClient{worker}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(WithCorpus(ds), WithClients(tc.planner, tc.worker))
			if err != nil {
				t.Fatal(err)
			}
			ctx := obs.WithRequestID(context.Background(), "failing")
			if _, err := sys.Query(ctx, tc.query); err == nil {
				t.Fatal("query unexpectedly succeeded")
			}
			tr, ok := sys.Traces.Get("failing")
			if !ok || tr.Status != "error" {
				t.Fatalf("no retained error trace (found=%v)", ok)
			}
			var walk func(s *obs.SpanJSON)
			walk = func(s *obs.SpanJSON) {
				if s.Open {
					t.Errorf("span %q was never ended", s.Name)
				}
				for _, c := range s.Children {
					walk(c)
				}
			}
			walk(tr.Root)
			// The failing phase is the last one the query entered.
			if n := len(tr.Root.Children); n == 0 || tr.Root.Children[n-1].Name != tc.phase {
				t.Fatalf("query did not fail in the %s phase: %+v", tc.phase, tr.Root.Children)
			}
		})
	}
}
