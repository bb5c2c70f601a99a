package sched

// refFinalize is finalizeLocked as it stood when a task was a string: jobs
// are merged by prefixing "q<job>|" onto every id and dependency of every
// job of the epoch — the committed ones again at every finalization — and
// a job's share of the merged result is recovered by stripping the prefix
// off every key of three maps. The merging and attribution code is kept
// verbatim. vtime's own string-keyed reference lives in vtime's tests,
// where this package cannot reach it, so the merged names are resolved to
// indices and run through vtime.Run, which that reference holds to the old
// results field for field. The differential test at the end of this file
// drives one pool through Run and a twin through refFinalize.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"unify/internal/vtime"
)

type refTask struct {
	ID         string
	Deps       []string
	Units      []vtime.Unit
	Sequential bool
	Job        int
	Priority   int
}

type refJobResult struct {
	Start, Makespan, Solo, Busy, GrantWait time.Duration
	Grants                                 int
	Finish                                 map[string]time.Duration
	TaskWait                               map[string]time.Duration
	Contended                              bool
	BatchedUnits                           int
	TaskBatched                            map[string]int
}

type refPendJob struct {
	tk    *Ticket
	tasks []refTask
}

type refCommitJob struct {
	job      int
	priority int
	tasks    []refTask
}

// refPool is a Pool whose jobs are finalized by refFinalize. Admission,
// release and Stats are the Pool's own.
type refPool struct {
	*Pool
	committed []refCommitJob
}

// refResult is a vtime.Result keyed the old way, by task name.
type refResult struct {
	vtime.Result
	Finish   map[string]time.Duration
	TaskWait map[string]time.Duration
	names    []string
}

// runNamed resolves a merged schedule's names to indices and runs it.
func runNamed(s *vtime.Schedule, merged []refTask) (refResult, error) {
	idx := make(map[string]int, len(merged))
	for i, t := range merged {
		idx[t.ID] = i
	}
	tasks := make([]vtime.Task, len(merged))
	out := refResult{Finish: map[string]time.Duration{}, TaskWait: map[string]time.Duration{}}
	for i, t := range merged {
		tasks[i] = vtime.Task{Units: t.Units, Sequential: t.Sequential, Job: t.Job, Priority: t.Priority}
		for _, d := range t.Deps {
			j, ok := idx[d]
			if !ok {
				return refResult{}, fmt.Errorf("task %q depends on unknown task %q", t.ID, d)
			}
			tasks[i].Deps = append(tasks[i].Deps, j)
		}
		out.names = append(out.names, t.ID)
	}
	res, err := s.Run(tasks)
	if err != nil {
		return refResult{}, err
	}
	out.Result = res
	for i, t := range merged {
		out.Finish[t.ID] = res.Finish[i]
		if res.TaskWait[i] > 0 {
			out.TaskWait[t.ID] = res.TaskWait[i]
		}
	}
	return out, nil
}

func (p *refPool) refFinalize(tk *Ticket, tasks []refTask, others []refPendJob) (refJobResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t0 := tk.Start
	ej := tk.epochJob
	contended := len(others) > 0 || len(p.committed) > 0

	var merged []refTask
	for _, c := range p.committed {
		merged = append(merged, prefixTasks(c.tasks, c.job, c.priority)...)
	}
	merged = append(merged, prefixTasks(tasks, ej, tk.Priority)...)
	for _, pj := range others {
		merged = append(merged, prefixTasks(pj.tasks, pj.tk.epochJob, pj.tk.Priority)...)
	}
	cluster := vtime.NewCluster(p.machines, p.slots)
	cluster.Batching = p.Batching
	mres, err := runNamed(cluster, merged)
	if err != nil {
		return refJobResult{}, err
	}

	jr := refJobResult{
		Start:     t0,
		Makespan:  mres.Jobs[ej].End,
		Busy:      mres.Jobs[ej].Busy,
		GrantWait: mres.Jobs[ej].Wait,
		Grants:    mres.Jobs[ej].Grants,
		Finish:    make(map[string]time.Duration, len(tasks)),
		Contended: contended,
	}
	for _, g := range mres.Batches {
		if len(g.Members) < 2 {
			continue
		}
		for _, m := range g.Members {
			if m.Job != ej {
				continue
			}
			jr.BatchedUnits++
			if own, ok := stripJob(mres.names[m.Task], ej); ok {
				if jr.TaskBatched == nil {
					jr.TaskBatched = make(map[string]int)
				}
				jr.TaskBatched[own]++
			}
		}
	}
	for id, f := range mres.Finish {
		if own, ok := stripJob(id, ej); ok {
			jr.Finish[own] = f
		}
	}
	for id, w := range mres.TaskWait {
		if own, ok := stripJob(id, ej); ok && w > 0 {
			if jr.TaskWait == nil {
				jr.TaskWait = make(map[string]time.Duration)
			}
			jr.TaskWait[own] = w
		}
	}
	p.committed = append(p.committed, refCommitJob{job: ej, priority: tk.Priority, tasks: tasks})

	for m := range p.free {
		for i := range p.free[m] {
			p.free[m][i] = t0 + mres.SlotFree[m][i]
		}
	}
	p.epochBusy = 0
	for m := range p.epochMachBusy {
		p.epochMachBusy[m] = mres.Busy[m]
		p.epochBusy += mres.Busy[m]
	}
	p.epochBatchGrants = int64(len(mres.Batches))
	p.epochBatchUnits = 0
	p.epochBatchSaved = 0
	for _, g := range mres.Batches {
		p.epochBatchUnits += int64(len(g.Members))
		if len(g.Members) > p.maxBatchSize {
			p.maxBatchSize = len(g.Members)
		}
		var solos time.Duration
		for _, m := range g.Members {
			solos += m.Solo
		}
		p.epochBatchSaved += solos - g.Dur
	}

	if contended {
		sres, err := runNamed(vtime.NewCluster(p.machines, p.slots), tasks)
		if err != nil {
			return refJobResult{}, err
		}
		jr.Solo = sres.Makespan
	} else {
		jr.Solo = jr.Makespan
	}

	end := t0 + mres.Jobs[ej].End
	if end > p.epochEnd {
		p.epochEnd = end
	}
	p.waitTotal += jr.GrantWait
	p.grantsTotal += int64(jr.Grants)
	p.completed++
	tk.ran = true
	p.resolve(tk.seq)
	return jr, nil
}

// prefixTasks namespaces a job's tasks into the merged schedule.
func prefixTasks(tasks []refTask, job, priority int) []refTask {
	out := make([]refTask, len(tasks))
	for i, t := range tasks {
		t.ID = jobPrefix(job) + t.ID
		deps := make([]string, len(t.Deps))
		for j, d := range t.Deps {
			deps[j] = jobPrefix(job) + d
		}
		t.Deps = deps
		t.Job = job
		t.Priority = priority
		out[i] = t
	}
	return out
}

func jobPrefix(job int) string { return fmt.Sprintf("q%d|", job) }

// stripJob recovers a task's own ID from its namespaced form.
func stripJob(id string, job int) (string, bool) {
	pre := jobPrefix(job)
	if len(id) >= len(pre) && id[:len(pre)] == pre {
		return id[len(pre):], true
	}
	return "", false
}

// randomJob draws the task graph the executor would submit for a plan of
// two to five operators homed on machine home: each a sequential stream of
// calls gated on earlier operators, some scattered into one shard task per
// machine ("n3.s1") with the operator's own task ("n3") merging them.
func randomJob(rng *rand.Rand, home, machines int, batched bool) []refTask {
	calls := func(m, n int) []vtime.Unit {
		units := make([]vtime.Unit, n)
		for i := range units {
			units[i] = vtime.Unit{Dur: time.Duration(1+rng.Intn(4)) * 50 * time.Millisecond, Pool: vtime.OnMachine(m)}
			if batched && rng.Intn(3) > 0 {
				units[i] = batchUnit([]string{"filter", "extract"}[rng.Intn(2)], time.Duration(rng.Intn(3))*10*time.Millisecond, 20*time.Millisecond)
				units[i].Pool = vtime.OnMachine(m)
			}
		}
		return units
	}
	var tasks []refTask
	for n, ops := 0, 2+rng.Intn(4); n < ops; n++ {
		id := fmt.Sprintf("n%d", n)
		var deps []string
		for d := 0; d < n; d++ {
			if rng.Intn(3) == 0 {
				deps = append(deps, fmt.Sprintf("n%d", d))
			}
		}
		switch {
		case machines > 1 && rng.Intn(3) == 0:
			var shards []string
			for s := 0; s < machines; s++ {
				shards = append(shards, fmt.Sprintf("%s.s%d", id, s))
				tasks = append(tasks, refTask{ID: shards[s], Deps: deps, Units: calls(s, 1+rng.Intn(3)), Sequential: true})
			}
			tasks = append(tasks, refTask{ID: id, Deps: shards, Units: []vtime.Unit{{Dur: time.Millisecond}}, Sequential: true})
		case rng.Intn(4) == 0:
			tasks = append(tasks, refTask{ID: id, Deps: deps, Units: []vtime.Unit{{Dur: 5 * time.Millisecond}}, Sequential: true})
		default:
			tasks = append(tasks, refTask{ID: id, Deps: deps, Units: calls(home, 1+rng.Intn(4)), Sequential: true})
		}
	}
	return tasks
}

// indexed is a job in the form Run takes: dependencies as indices into the
// job's own tasks.
func indexed(ref []refTask) []vtime.Task {
	idx := make(map[string]int, len(ref))
	for i, t := range ref {
		idx[t.ID] = i
	}
	tasks := make([]vtime.Task, len(ref))
	for i, t := range ref {
		tasks[i] = vtime.Task{Label: t.ID, Units: t.Units, Sequential: t.Sequential}
		for _, d := range t.Deps {
			tasks[i].Deps = append(tasks[i].Deps, idx[d])
		}
	}
	return tasks
}

// named is a JobResult keyed the old way: tasks by name, zero waits and
// batch counts absent.
func named(jr JobResult, ref []refTask) refJobResult {
	out := refJobResult{
		Start: jr.Start, Makespan: jr.Makespan, Solo: jr.Solo, Busy: jr.Busy, GrantWait: jr.GrantWait,
		Grants: jr.Grants, Contended: jr.Contended, BatchedUnits: jr.BatchedUnits,
		Finish: map[string]time.Duration{},
	}
	for i, t := range ref {
		out.Finish[t.ID] = jr.Finish[i]
		if w := jr.TaskWait[i]; w > 0 {
			if out.TaskWait == nil {
				out.TaskWait = map[string]time.Duration{}
			}
			out.TaskWait[t.ID] = w
		}
		if jr.TaskBatched != nil && jr.TaskBatched[i] > 0 {
			if out.TaskBatched == nil {
				out.TaskBatched = map[string]int{}
			}
			out.TaskBatched[t.ID] = jr.TaskBatched[i]
		}
	}
	return out
}

// TestFinalizeMatchesReference: over random epochs of two to six
// co-pending jobs — mixed priorities, scatter-shaped graphs, one to three
// machines, batching on and off, two epochs per pool — every JobResult and
// the pool's Stats equal what the name-prefixing finalization computes.
func TestFinalizeMatchesReference(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < trials; trial++ {
		machines, slots := 1+rng.Intn(3), 1+rng.Intn(3)
		p, rp := NewCluster(machines, slots), &refPool{Pool: NewCluster(machines, slots)}
		p.StrictChecks = true
		batched := trial%2 == 1
		if batched {
			p.Batching = &vtime.BatchPolicy{Window: 100 * time.Millisecond, FairnessCap: 2500 * time.Millisecond, MaxBatch: 1 + rng.Intn(4)}
			rp.Batching = p.Batching
		}
		for epoch := 0; epoch < 2; epoch++ {
			n := 2 + rng.Intn(5)
			gate, rgate := p.Admit(0), rp.Admit(0)
			rp.committed = nil // Admit opened a fresh epoch
			tks, rtks := make([]*Ticket, n), make([]*Ticket, n)
			jobs := make([][]refTask, n)
			for i := range jobs {
				prio := rng.Intn(3)
				tks[i], rtks[i] = p.Admit(prio), rp.Admit(prio)
				jobs[i] = randomJob(rng, tks[i].Machine(), machines, batched)
			}

			got := make([]JobResult, n)
			var wg sync.WaitGroup
			for i := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					jr, err := p.Run(context.Background(), tks[i], indexed(jobs[i]))
					if err != nil {
						t.Error(err)
					}
					got[i] = jr
				}()
			}
			waitPending(t, p, n)
			p.Release(gate) // every job is co-pending: finalization order is admission order
			wg.Wait()

			rp.Release(rgate)
			for i := range jobs {
				var others []refPendJob
				for j := i + 1; j < n; j++ {
					others = append(others, refPendJob{rtks[j], jobs[j]})
				}
				want, err := rp.refFinalize(rtks[i], jobs[i], others)
				if err != nil {
					t.Fatal(err)
				}
				if got := named(got[i], jobs[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d epoch %d job %d (batched=%v):\n got %+v\nwant %+v", trial, epoch, i, batched, got, want)
				}
			}
			if got, want := p.Stats(), rp.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d epoch %d: open-epoch stats\n got %+v\nwant %+v", trial, epoch, got, want)
			}
			for i := range tks {
				p.Release(tks[i])
				rp.Release(rtks[i])
			}
			if got, want := p.Stats(), rp.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d epoch %d: drained stats\n got %+v\nwant %+v", trial, epoch, got, want)
			}
		}
	}
}
