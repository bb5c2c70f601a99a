package sched

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"unify/internal/vtime"
)

// batchUnit builds a batchable LLM unit with the worker profile's
// magnitudes: 80ms base, 30ms template prefill, payload and decode as
// given. The spec parts sum exactly to the unit duration.
func batchUnit(key string, payload, decode time.Duration) vtime.Unit {
	base := 80 * time.Millisecond
	tmpl := 30 * time.Millisecond
	return vtime.Unit{
		Dur:  base + tmpl + payload + decode,
		Pool: vtime.OnMachine(0),
		Batch: &vtime.BatchSpec{
			Key: key, Base: base, Decode: decode,
			TemplatePrefill: tmpl, PayloadPrefill: payload,
		},
	}
}

// chain is a single sequential operator of n batchable calls.
func chain(id string, n int, key string) []vtime.Task {
	units := make([]vtime.Unit, n)
	for i := range units {
		units[i] = batchUnit(key, 100*time.Millisecond, 200*time.Millisecond)
	}
	return []vtime.Task{{Label: id, Units: units, Sequential: true}}
}

// TestBatchStarvationBounded is the fairness acceptance test: one heavy
// scan (a long chain of batchable chunks) shares the batching pool with
// eight light queries. The fairness cap bounds every multi-member
// invocation, so no light query's slot wait can stretch past a capped
// invocation plus normal queueing — and the strict checker's
// batch.fairness_bound invariant audits every grant of the merged replay.
func TestBatchStarvationBounded(t *testing.T) {
	const cap = 2500 * time.Millisecond
	p := NewPool(4)
	p.StrictChecks = true
	p.Batching = &vtime.BatchPolicy{Window: 100 * time.Millisecond, FairnessCap: cap, MaxBatch: 8}

	gate := p.Admit(0)
	heavyTk := p.Admit(0)
	lightTks := make([]*Ticket, 8)
	for i := range lightTks {
		lightTks[i] = p.Admit(0)
	}

	var heavy JobResult
	lights := make([]JobResult, len(lightTks))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		jr, err := p.Run(context.Background(), heavyTk, chain("scan", 50, "filter"))
		if err != nil {
			t.Error(err)
		}
		heavy = jr
	}()
	for i := range lightTks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jr, err := p.Run(context.Background(), lightTks[i], chain("probe", 1, "filter"))
			if err != nil {
				t.Error(err)
			}
			lights[i] = jr
		}(i)
	}
	waitPending(t, p, 9)
	p.Release(gate) // all nine jobs co-pending: one deterministic epoch
	wg.Wait()
	st := p.Stats()
	p.Release(heavyTk)
	for _, tk := range lightTks {
		p.Release(tk)
	}

	if heavy.BatchedUnits == 0 {
		t.Fatal("heavy scan never batched with the light queries")
	}
	batchedLights := 0
	for i, jr := range lights {
		if jr.Makespan < jr.Solo {
			t.Fatalf("light %d makespan %v < solo %v", i, jr.Makespan, jr.Solo)
		}
		// The starvation bound: a light query waits at most one capped
		// invocation (the batch occupying its slot when it arrives) plus
		// its own hold-the-door deferral — far under the heavy scan's
		// total demand, which FCFS without caps could charge it.
		if jr.GrantWait > cap {
			t.Errorf("light %d waited %v for its grant, above the %v fairness cap", i, jr.GrantWait, cap)
		}
		if jr.BatchedUnits > 0 {
			batchedLights++
		}
	}
	if batchedLights == 0 {
		t.Fatal("no light query rode a batched invocation")
	}
	if st.BatchGrants == 0 || st.BatchOccupancy <= 1.0 {
		t.Fatalf("batching stats show no coalescing: %+v", st)
	}
	if st.MaxBatchSize > 8 {
		t.Fatalf("max batch size %d exceeds the policy bound", st.MaxBatchSize)
	}
	if st.Utilization > 1.0 {
		t.Fatalf("epoch utilization %v > 1 with batching", st.Utilization)
	}
}

// TestBatchPoolDeterministicReplay pins the pool-level guarantee: with a
// fixed admission and submission sequence, batching produces
// bit-identical job results across replays.
func TestBatchPoolDeterministicReplay(t *testing.T) {
	run := func() []JobResult {
		p := NewPool(2)
		p.StrictChecks = true
		p.Batching = &vtime.BatchPolicy{Window: 100 * time.Millisecond, FairnessCap: 2500 * time.Millisecond, MaxBatch: 4}
		const n = 5
		gate := p.Admit(0)
		tks := make([]*Ticket, n)
		for i := range tks {
			tks[i] = p.Admit(i % 2)
		}
		out := make([]JobResult, n)
		var wg sync.WaitGroup
		for i := n - 1; i >= 0; i-- {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				jr, err := p.Run(context.Background(), tks[i], chain("op", 2+i%3, "filter"))
				if err != nil {
					t.Error(err)
				}
				out[i] = jr
			}(i)
		}
		waitPending(t, p, n)
		p.Release(gate)
		wg.Wait()
		for i := range tks {
			p.Release(tks[i])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if av, bv := formatJR(a[i]), formatJR(b[i]); av != bv {
			t.Fatalf("batched replay diverged at query %d:\n%s\n%s", i, av, bv)
		}
	}
}

func formatJR(jr JobResult) string {
	return fmt.Sprintf("%v|%v|%v|%v|%d", jr.Start, jr.Makespan, jr.Busy, jr.GrantWait, jr.BatchedUnits)
}
