package main

import (
	"context"
	"errors"
	"testing"

	"unify"
)

// TestReplayMatchesStockSim shows that strict replay changes nothing a
// query can observe: answers, model-call counts and virtual time equal a
// stock-Sim System's, query for query, while the Sim itself is idle.
func TestReplayMatchesStockSim(t *testing.T) {
	in, err := makeInputs(smoke, smoke.docs, smoke.docs, 7)
	if err != nil {
		t.Fatal(err)
	}
	round := func(sys *unify.System) []*unify.Answer {
		t.Helper()
		out := make([]*unify.Answer, len(in.nl))
		for i, q := range in.nl {
			if out[i], err = sys.Query(context.Background(), q); err != nil {
				t.Fatalf("%q: %v", q, err)
			}
		}
		return out
	}

	// The stock run: default Sims, shared cache off, one learning round,
	// then the cost model frozen as openReplay freezes it.
	stock, err := openSystem(in.ds, unify.WithCacheBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	round(stock)
	stock.Calib.Freeze()
	want := round(stock)

	r := &run{sc: smoke}
	rs, err := r.openReplay(in)
	if err != nil {
		t.Fatal(err)
	}
	simBefore := rs.simCalls()
	got := round(rs.sys)
	for i := range want {
		if got[i].Text != want[i].Text || got[i].LLMCalls != want[i].LLMCalls || got[i].TotalDur != want[i].TotalDur {
			t.Errorf("%q: replayed (%q, %d calls, %v), stock Sim (%q, %d calls, %v)", in.nl[i],
				got[i].Text, got[i].LLMCalls, got[i].TotalDur, want[i].Text, want[i].LLMCalls, want[i].TotalDur)
		}
	}
	if n := rs.simCalls() - simBefore; n != 0 {
		t.Errorf("strict replay let %d prompts through to the Sim", n)
	}
	if len(r.problems) != 0 {
		t.Errorf("recording raised gate problems: %v", r.problems)
	}

	// A prompt never recorded is an error, not a call to the model.
	_, err = rs.worker.Complete(context.Background(), "#TASK filter_doc\n#FIELD doc\nnever seen\n#END")
	if !errors.Is(err, errReplayMiss) || rs.worker.misses.Load() != 1 {
		t.Errorf("unseen prompt in strict mode: err=%v misses=%d, want errReplayMiss and 1", err, rs.worker.misses.Load())
	}
	if n := rs.simCalls() - simBefore; n != 0 {
		t.Errorf("the miss reached the Sim (%d calls)", n)
	}
}
