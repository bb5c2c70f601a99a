package sched

import (
	"context"
	"testing"

	"unify/internal/vtime"
)

// fiveTasks is a five-operator plan's graph: two scans feeding a join, a
// count over it, a comparison over both — two calls each.
func fiveTasks() []vtime.Task {
	calls := []vtime.Unit{{Dur: ms(7), Pool: vtime.OnMachine(0)}, {Dur: ms(7), Pool: vtime.OnMachine(0)}}
	return []vtime.Task{
		{Units: calls, Sequential: true},
		{Units: calls, Sequential: true},
		{Deps: []int{0, 1}, Units: calls, Sequential: true},
		{Deps: []int{2}, Units: calls, Sequential: true},
		{Deps: []int{2, 3}, Units: calls, Sequential: true},
	}
}

// admitRunRelease takes one job through the pool the way a query does.
func admitRunRelease(t *testing.T, p *Pool, tasks []vtime.Task) {
	tk := p.Admit(0)
	if _, err := p.Run(context.Background(), tk, tasks); err != nil {
		t.Fatal(err)
	}
	p.Release(tk)
}

// TestLoneJobAllocations pins what an uncontended query's replay
// allocates: a ticket and its channel, the pending entry, one flat copy of
// the job's tasks and dependencies, and one vtime run over slices. It was
// 84 when tasks and machines were strings and every result a map.
func TestLoneJobAllocations(t *testing.T) {
	p, tasks := NewPool(4), fiveTasks()
	got := testing.AllocsPerRun(100, func() { admitRunRelease(t, p, tasks) })
	if got != 29 {
		t.Errorf("a lone five-task job allocates %v objects, want 29", got)
	}
}

// TestCommittedJobsAreNotRelabelled pins the 20th finalization of a
// 20-job epoch: the 19 committed jobs are replayed as they stand, so the
// finalization allocates what its own job's copy, the joint vtime run (a
// dependents list per task, the rest flat) and the solo run do. It was 936
// when every finalization re-prefixed the id and the dependencies of every
// task of every committed job.
func TestCommittedJobsAreNotRelabelled(t *testing.T) {
	tasks := fiveTasks()
	epoch := func(jobs int) float64 {
		tks := make([]*Ticket, jobs)
		return testing.AllocsPerRun(20, func() {
			p := NewPool(4)
			for j := range tks {
				tks[j] = p.Admit(0) // admitted together: one epoch
			}
			for _, tk := range tks {
				if _, err := p.Run(context.Background(), tk, tasks); err != nil {
					t.Fatal(err)
				}
			}
			for _, tk := range tks {
				p.Release(tk)
			}
		})
	}
	if got := epoch(20) - epoch(19); got != 145 {
		t.Errorf("the 20th finalization of an epoch allocates %v objects, want 145", got)
	}
}
