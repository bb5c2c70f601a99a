package sched

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"unify/internal/vtime"
)

// homedGraph is graph() homed on machine m's slot resource, the way the
// executor builds task graphs against a ticket's home machine.
func homedGraph(m, calls int, dur time.Duration) []vtime.Task {
	res := vtime.OnMachine(m)
	units := make([]vtime.Unit, calls)
	for i := range units {
		units[i] = vtime.Unit{Dur: dur, Pool: res}
	}
	return []vtime.Task{
		{Label: "a", Units: units},
		{Label: "b", Deps: []int{0}, Units: []vtime.Unit{{Dur: dur, Pool: res}}},
	}
}

// TestClusterM1MatchesPool asserts a 1-machine cluster is bit-identical
// to the plain single-machine pool — the scale-out PR's compatibility
// bar. The same task graphs drive both.
func TestClusterM1MatchesPool(t *testing.T) {
	runSeq := func(p *Pool) []JobResult {
		var out []JobResult
		// Two drained epochs, then a co-admitted contended pair.
		for i := 0; i < 2; i++ {
			tk := p.Admit(0)
			jr, err := p.Run(context.Background(), tk, graph(8, ms(5)))
			p.Release(tk)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, jr)
		}
		gate := p.Admit(0)
		tkA, tkB := p.Admit(0), p.Admit(1)
		var jrB JobResult
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); jrB, _ = p.Run(context.Background(), tkB, graph(6, ms(9))) }()
		waitPending(t, p, 1)
		p.Release(gate)
		jrA, err := p.Run(context.Background(), tkA, graph(6, ms(9)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		p.Release(tkA)
		p.Release(tkB)
		return append(out, jrA, jrB)
	}

	pool := runSeq(NewPool(4))
	cluster := runSeq(NewCluster(1, 4))
	for i := range pool {
		if fmt.Sprintf("%+v", pool[i]) != fmt.Sprintf("%+v", cluster[i]) {
			t.Fatalf("job %d diverged:\npool:    %+v\ncluster: %+v", i, pool[i], cluster[i])
		}
	}
}

// TestClusterHomeRoundRobin asserts home machines rotate per epoch
// admission: query k of an epoch lands on machine k mod M, and a
// drained cluster restarts the rotation at machine 0.
func TestClusterHomeRoundRobin(t *testing.T) {
	c := NewCluster(4, 2)
	tks := make([]*Ticket, 8)
	for i := range tks {
		tks[i] = c.Admit(0)
		if got := tks[i].Machine(); got != i%4 {
			t.Fatalf("ticket %d homed on machine %d, want %d", i, got, i%4)
		}
	}
	for _, tk := range tks {
		c.Release(tk)
	}
	// Fresh epoch: rotation restarts at 0.
	tk := c.Admit(0)
	defer c.Release(tk)
	if got := tk.Machine(); got != 0 {
		t.Fatalf("post-drain ticket homed on machine %d, want 0", got)
	}
}

// TestClusterMachinesRunInParallel asserts two queries homed on separate
// machines overlap in virtual time instead of queueing: the cluster's
// whole point.
func TestClusterMachinesRunInParallel(t *testing.T) {
	c := NewCluster(2, 1)
	gate := c.Admit(0)
	tkA, tkB := c.Admit(0), c.Admit(0)
	if tkA.Machine() == tkB.Machine() {
		t.Fatalf("both tickets homed on machine %d", tkA.Machine())
	}
	serial := func(m int) []vtime.Task {
		res := vtime.OnMachine(m)
		return []vtime.Task{{Label: "op", Sequential: true, Units: []vtime.Unit{
			{Dur: ms(10), Pool: res},
			{Dur: ms(10), Pool: res},
		}}}
	}
	var jrB JobResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		jrB, _ = c.Run(context.Background(), tkB, serial(tkB.Machine()))
	}()
	waitPending(t, c, 1)
	c.Release(gate)
	jrA, err := c.Run(context.Background(), tkA, serial(tkA.Machine()))
	wg.Wait()
	c.Release(tkA)
	c.Release(tkB)
	if err != nil {
		t.Fatal(err)
	}
	// Each machine has one slot; on a single machine the second query
	// would finish at 40ms. On the cluster both finish at 20ms.
	if jrA.Makespan != ms(20) || jrB.Makespan != ms(20) {
		t.Fatalf("expected 20ms/20ms across machines, got A=%v B=%v", jrA.Makespan, jrB.Makespan)
	}
	st := c.Stats()
	if st.Machines != 2 || len(st.PerMachine) != 2 {
		t.Fatalf("stats machines: %+v", st)
	}
	for _, pm := range st.PerMachine {
		if pm.BusyTotal != ms(20) {
			t.Fatalf("machine %d busy %v, want 20ms", pm.Machine, pm.BusyTotal)
		}
		if pm.CumUtilization < 0 || pm.CumUtilization > 1 {
			t.Fatalf("machine %d cum utilization %v out of range", pm.Machine, pm.CumUtilization)
		}
	}
}

// TestClusterDeterministicReplay asserts the same admission+submission
// sequence on a 4-machine cluster yields bit-identical grants across
// replays, concurrent Run callers and all.
func TestClusterDeterministicReplay(t *testing.T) {
	run := func() []JobResult {
		c := NewCluster(4, 2)
		const n = 8
		gate := c.Admit(0)
		tks := make([]*Ticket, n)
		for i := range tks {
			tks[i] = c.Admit(i % 2)
		}
		out := make([]JobResult, n)
		var wg sync.WaitGroup
		for i := n - 1; i >= 0; i-- {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tasks := homedGraph(tks[i].Machine(), 3+i, ms(4+i))
				jr, err := c.Run(context.Background(), tks[i], tasks)
				if err != nil {
					t.Error(err)
				}
				out[i] = jr
			}(i)
		}
		waitPending(t, c, n)
		c.Release(gate)
		wg.Wait()
		for i := range tks {
			c.Release(tks[i])
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
