package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"unify/internal/vtime"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// graph returns a small two-operator task graph with LLM units.
func graph(calls int, dur time.Duration) []vtime.Task {
	units := make([]vtime.Unit, calls)
	for i := range units {
		units[i] = vtime.Unit{Dur: dur, Pool: vtime.OnMachine(0)}
	}
	return []vtime.Task{
		{Label: "a", Units: units},
		{Label: "b", Deps: []int{0}, Units: []vtime.Unit{{Dur: dur, Pool: vtime.OnMachine(0)}}},
	}
}

// TestSoloMatchesPrivateSchedule asserts the pool is bit-identical to a
// private vtime.Schedule for a lone query — the PR 3 compatibility bar.
func TestSoloMatchesPrivateSchedule(t *testing.T) {
	tasks := graph(10, ms(7))
	want, err := vtime.NewSchedule(4).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(4)
	tk := p.Admit(0)
	jr, err := p.Run(context.Background(), tk, tasks)
	p.Release(tk)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Makespan != want.Makespan {
		t.Fatalf("makespan %v != private %v", jr.Makespan, want.Makespan)
	}
	if jr.Solo != want.Makespan {
		t.Fatalf("solo %v != private %v", jr.Solo, want.Makespan)
	}
	if jr.Contended {
		t.Fatal("lone query reported contended")
	}
	if !slices.Equal(jr.Finish, want.Finish) {
		t.Fatalf("finish %v != private %v", jr.Finish, want.Finish)
	}
	if jr.Busy != want.Busy[0] {
		t.Fatalf("busy %v != private %v", jr.Busy, want.Busy[0])
	}
}

// TestSequentialEpochsReset asserts that a query admitted after the pool
// drains sees an idle machine (fresh epoch) and schedules solo.
func TestSequentialEpochsReset(t *testing.T) {
	p := NewPool(4)
	tasks := graph(8, ms(5))
	var first JobResult
	for i := 0; i < 3; i++ {
		tk := p.Admit(0)
		jr, err := p.Run(context.Background(), tk, tasks)
		p.Release(tk)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = jr
		}
		if jr.Makespan != first.Makespan {
			t.Fatalf("run %d makespan %v != first %v", i, jr.Makespan, first.Makespan)
		}
		if jr.Contended {
			t.Fatalf("run %d contended on drained pool", i)
		}
		if jr.GrantWait != first.GrantWait {
			t.Fatalf("run %d grant wait %v != first %v", i, jr.GrantWait, first.GrantWait)
		}
	}
	st := p.Stats()
	if st.Completed != 3 || st.Active != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestContention8on4 drives 8 co-admitted queries onto 4 slots and checks
// the acceptance criteria: every makespan ≥ its solo makespan, aggregate
// utilization ≤ 1, and at least one query actually waited.
func TestContention8on4(t *testing.T) {
	p := NewPool(4)
	const n = 8
	tasks := graph(6, ms(9))

	tks := make([]*Ticket, n)
	for i := range tks {
		tks[i] = p.Admit(0) // all co-admitted: one epoch
	}
	results := make([]JobResult, n)
	var wg sync.WaitGroup
	for i := range tks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jr, err := p.Run(context.Background(), tks[i], tasks)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = jr
		}(i)
	}
	wg.Wait()
	util := p.Stats().Utilization // epoch still open: live utilization
	for i := range tks {
		p.Release(tks[i])
	}

	contended := 0
	for i, jr := range results {
		if jr.Makespan < jr.Solo {
			t.Fatalf("query %d makespan %v < solo %v", i, jr.Makespan, jr.Solo)
		}
		if jr.Makespan > jr.Solo {
			contended++
		}
	}
	if contended == 0 {
		t.Fatal("no query experienced contention with 8 jobs on 4 slots")
	}
	if util > 1.0 {
		t.Fatalf("aggregate utilization %v > 1", util)
	}
	if util <= 0 {
		t.Fatalf("aggregate utilization %v not positive", util)
	}
	if st := p.Stats(); st.PeakActive != n {
		t.Fatalf("peak active %d != %d", st.PeakActive, n)
	}
}

// waitPending polls until the pool has at least n submitted jobs waiting.
func waitPending(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Pending < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending jobs (have %d)", n, p.Stats().Pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeterministicReplay asserts that the same admission+submission
// sequence yields bit-identical grants across replays, including with
// concurrent Run callers (admission order, not goroutine timing, decides
// once all jobs have submitted). A gate ticket holds the barrier until
// every job is queued, fixing the submission interleaving.
func TestDeterministicReplay(t *testing.T) {
	run := func() []JobResult {
		p := NewPool(4)
		const n = 6
		gate := p.Admit(0)
		tks := make([]*Ticket, n)
		for i := range tks {
			tks[i] = p.Admit(i % 2) // mixed priorities
		}
		out := make([]JobResult, n)
		var wg sync.WaitGroup
		for i := n - 1; i >= 0; i-- { // start in reverse to stress the barrier
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tasks := graph(3+i, ms(4+i))
				jr, err := p.Run(context.Background(), tks[i], tasks)
				if err != nil {
					t.Error(err)
				}
				out[i] = jr
			}(i)
		}
		waitPending(t, p, n)
		p.Release(gate) // open the barrier: all jobs are now co-pending
		wg.Wait()
		for i := range tks {
			p.Release(tks[i])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			t.Fatalf("replay diverged at query %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestFairnessRoundRobin asserts that two equal co-pending jobs split the
// slots rather than the first job hogging all of them.
func TestFairnessRoundRobin(t *testing.T) {
	p := NewPool(2)
	tkA := p.Admit(0)
	tkB := p.Admit(0)
	tasks := func() []vtime.Task {
		return []vtime.Task{{Label: "op", Units: []vtime.Unit{
			{Dur: ms(10), Pool: vtime.OnMachine(0)},
			{Dur: ms(10), Pool: vtime.OnMachine(0)},
			{Dur: ms(10), Pool: vtime.OnMachine(0)},
			{Dur: ms(10), Pool: vtime.OnMachine(0)},
		}}}
	}
	var jrA, jrB JobResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); jrB, _ = p.Run(context.Background(), tkB, tasks()) }()
	waitPending(t, p, 1) // B queued behind the barrier before A finalizes
	jrA, _ = p.Run(context.Background(), tkA, tasks())
	wg.Wait()
	p.Release(tkA)
	p.Release(tkB)

	// Fair split: each job gets one slot's worth of sustained service, so
	// both finish at 40ms. FCFS would give A 20ms and B 40ms.
	if jrA.Makespan != ms(40) || jrB.Makespan != ms(40) {
		t.Fatalf("expected fair 40ms/40ms split, got A=%v B=%v", jrA.Makespan, jrB.Makespan)
	}
	if jrA.Solo != ms(20) || jrB.Solo != ms(20) {
		t.Fatalf("solo should be 20ms, got A=%v B=%v", jrA.Solo, jrB.Solo)
	}
}

// TestPriorityWins asserts a higher-priority co-pending job is granted
// slots ahead of an equal lower-priority one.
func TestPriorityWins(t *testing.T) {
	p := NewPool(1)
	tkLow := p.Admit(0)
	tkHigh := p.Admit(5)
	one := func() []vtime.Task {
		return []vtime.Task{{Label: "op", Units: []vtime.Unit{{Dur: ms(10), Pool: vtime.OnMachine(0)}}}}
	}
	var jrHigh JobResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); jrHigh, _ = p.Run(context.Background(), tkHigh, one()) }()
	waitPending(t, p, 1) // high queued behind the barrier before low finalizes
	jrLow, _ := p.Run(context.Background(), tkLow, one())
	wg.Wait()
	p.Release(tkLow)
	p.Release(tkHigh)

	if jrHigh.Makespan != ms(10) {
		t.Fatalf("high priority should run first (10ms), got %v", jrHigh.Makespan)
	}
	if jrLow.Makespan != ms(20) {
		t.Fatalf("low priority should wait (20ms), got %v", jrLow.Makespan)
	}
	if jrLow.GrantWait != ms(10) {
		t.Fatalf("low priority grant wait should be 10ms, got %v", jrLow.GrantWait)
	}
}

// TestReleaseWithoutRunUnblocks asserts an errored query (Admit then
// Release, never Run) does not wedge the admission barrier.
func TestReleaseWithoutRunUnblocks(t *testing.T) {
	p := NewPool(4)
	tk1 := p.Admit(0)
	tk2 := p.Admit(0)
	p.Release(tk1) // query 1 failed before scheduling

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := p.Run(context.Background(), tk2, graph(2, ms(3))); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run wedged behind a released ticket")
	}
	p.Release(tk2)
}

// TestRunCancel asserts a queued Run call honors context cancellation.
func TestRunCancel(t *testing.T) {
	p := NewPool(4)
	tk1 := p.Admit(0)
	tk2 := p.Admit(0)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, tk2, graph(2, ms(3)))
		errc <- err
	}()
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	p.Release(tk2)

	// tk1 is still runnable afterwards.
	if _, err := p.Run(context.Background(), tk1, graph(2, ms(3))); err != nil {
		t.Fatal(err)
	}
	p.Release(tk1)
}

// TestTicketContext round-trips a ticket through a context.
func TestTicketContext(t *testing.T) {
	if TicketFrom(context.Background()) != nil {
		t.Fatal("empty context should have no ticket")
	}
	p := NewPool(2)
	tk := p.Admit(0)
	ctx := WithTicket(context.Background(), tk)
	if TicketFrom(ctx) != tk {
		t.Fatal("ticket did not round-trip")
	}
	p.Release(tk)
}
