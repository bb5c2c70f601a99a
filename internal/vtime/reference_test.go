package vtime

// refRun is Schedule.Run as it stood before the typed heaps: the pending
// queue and the slot-free times behind container/heap, every Push and Pop
// boxing its element into an interface, and result maps that grow as they
// fill. It is kept verbatim (identifiers renamed) as the reference the
// differential test at the end of this file holds Run to, Result for
// Result.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

type refUnitHeap []pendingUnit

func (h refUnitHeap) Len() int            { return len(h) }
func (h refUnitHeap) Less(i, j int) bool  { return unitLess(h[i], h[j]) }
func (h refUnitHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refUnitHeap) Push(x interface{}) { *h = append(*h, x.(pendingUnit)) }
func (h *refUnitHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refRun schedules the task graph and returns its makespan. It returns an
// error on unknown dependencies or dependency cycles.
func (s *Schedule) refRun(tasks []Task) (Result, error) {
	idx := make(map[string]int, len(tasks))
	for i, t := range tasks {
		if _, dup := idx[t.ID]; dup {
			return Result{}, fmt.Errorf("vtime: duplicate task %q", t.ID)
		}
		idx[t.ID] = i
	}
	indeg := make([]int, len(tasks))
	succ := make([][]int, len(tasks))
	for i, t := range tasks {
		for _, d := range t.Deps {
			j, ok := idx[d]
			if !ok {
				return Result{}, fmt.Errorf("vtime: task %q depends on unknown task %q", t.ID, d)
			}
			indeg[i]++
			succ[j] = append(succ[j], i)
		}
	}

	// State per task.
	remaining := make([]int, len(tasks)) // unfinished units
	nextUnit := make([]int, len(tasks))  // for sequential tasks
	taskReady := make([]time.Duration, len(tasks))
	finish := make([]time.Duration, len(tasks))
	started := make([]bool, len(tasks))
	for i, t := range tasks {
		remaining[i] = len(t.Units)
	}

	// Resource state: per resource, a min-heap of slot free times.
	free := map[string]*refDurHeap{}
	slotHeap := func(res string) *refDurHeap {
		h, ok := free[res]
		if !ok {
			cap, limited := s.Capacity[res]
			if !limited {
				return nil // unlimited
			}
			hh := make(refDurHeap, cap)
			h = &hh
			heap.Init(h)
			free[res] = h
		}
		return h
	}

	pend := &refUnitHeap{}
	seqs := map[int]int{} // per-job FIFO sequence counters
	enqueueTask := func(i int, at time.Duration) {
		started[i] = true
		taskReady[i] = at
		t := &tasks[i]
		if len(t.Units) == 0 {
			return // completed immediately; handled by caller
		}
		if t.Sequential {
			heap.Push(pend, pendingUnit{i, 0, at, t.Priority, seqs[t.Job], t.Job})
			seqs[t.Job]++
			nextUnit[i] = 0
			return
		}
		for u := range t.Units {
			heap.Push(pend, pendingUnit{i, u, at, t.Priority, seqs[t.Job], t.Job})
			seqs[t.Job]++
		}
	}

	busy := map[string]time.Duration{}
	res := Result{
		Finish:     make(map[string]time.Duration, len(tasks)),
		Busy:       busy,
		JobBusy:    map[int]time.Duration{},
		JobWait:    map[int]time.Duration{},
		JobGrants:  map[int]int{},
		JobEnd:     map[int]time.Duration{},
		TaskWait:   map[string]time.Duration{},
		JobResBusy: map[int]map[string]time.Duration{},
	}
	jobResBusy := func(job int, resName string, d time.Duration) {
		m := res.JobResBusy[job]
		if m == nil {
			m = map[string]time.Duration{}
			res.JobResBusy[job] = m
		}
		m[resName] += d
	}

	// completeTask marks a task finished at time t and releases successors.
	var completeTask func(i int, t time.Duration)
	completeTask = func(i int, t time.Duration) {
		started[i] = true
		finish[i] = t
		res.Finish[tasks[i].ID] = t
		if t > res.Makespan {
			res.Makespan = t
		}
		if t > res.JobEnd[tasks[i].Job] {
			res.JobEnd[tasks[i].Job] = t
		}
		for _, nxt := range succ[i] {
			indeg[nxt]--
			if indeg[nxt] == 0 {
				// Ready time is the max finish of all deps.
				at := time.Duration(0)
				for _, d := range tasks[nxt].Deps {
					if f := finish[idx[d]]; f > at {
						at = f
					}
				}
				if remaining[nxt] == 0 {
					completeTask(nxt, at)
				} else {
					enqueueTask(nxt, at)
				}
			}
		}
	}

	// Seed roots deterministically in declaration order. Tasks already
	// released by a zero-unit root's completion are skipped.
	for i := range tasks {
		if indeg[i] == 0 && !started[i] {
			if remaining[i] == 0 {
				completeTask(i, 0)
			} else {
				enqueueTask(i, 0)
			}
		}
	}

	scheduled := 0
	total := 0
	for i := range tasks {
		total += len(tasks[i].Units)
	}

	for pend.Len() > 0 {
		pu := heap.Pop(pend).(pendingUnit)
		t := &tasks[pu.taskIdx]
		u := t.Units[pu.unitIdx]
		start := pu.ready
		h := slotHeap(u.Resource)
		if h != nil {
			slotFree := heap.Pop(h).(time.Duration)
			if slotFree > start {
				start = slotFree
			}
		}

		if h != nil && s.Batching != nil && u.Batch != nil && u.Batch.Key != "" {
			// Continuous batching: this slot grant may absorb compatible
			// pending units of other jobs. The helper pushes the slot's
			// next free time and performs all accounting for the members.
			s.refGrantBatch(pu, u, start, h, pend, tasks, seqs, remaining, finish, busy, &res, jobResBusy, completeTask, &scheduled)
			continue
		}

		end := start + u.Dur
		if h != nil {
			heap.Push(h, end)
			busy[u.Resource] += u.Dur
			res.JobBusy[t.Job] += u.Dur
			jobResBusy(t.Job, u.Resource, u.Dur)
			res.JobWait[t.Job] += start - pu.ready
			res.TaskWait[t.ID] += start - pu.ready
			res.JobGrants[t.Job]++
		}
		scheduled++
		remaining[pu.taskIdx]--
		if t.Sequential && pu.unitIdx+1 < len(t.Units) {
			heap.Push(pend, pendingUnit{pu.taskIdx, pu.unitIdx + 1, end, t.Priority, seqs[t.Job], t.Job})
			seqs[t.Job]++
		}
		if end > finish[pu.taskIdx] {
			finish[pu.taskIdx] = end
		}
		if remaining[pu.taskIdx] == 0 {
			completeTask(pu.taskIdx, finish[pu.taskIdx])
		}
	}

	if scheduled != total {
		// Some tasks never became ready: there is a dependency cycle.
		var stuck []string
		for i := range tasks {
			if !started[i] && remaining[i] > 0 {
				stuck = append(stuck, tasks[i].ID)
			}
		}
		sort.Strings(stuck)
		return Result{}, fmt.Errorf("vtime: dependency cycle involving %v", stuck)
	}
	res.SlotFree = map[string][]time.Duration{}
	for name, h := range free {
		times := append([]time.Duration(nil), (*h)...)
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		res.SlotFree[name] = times
	}
	return res, nil
}

// refGrantBatch handles one slot grant of a batchable unit under a
// BatchPolicy: it selects co-schedulable pending units of other jobs
// (same key and resource, ready within the hold-the-door window, taken
// in the deterministic grant order), removes them from the pending
// queue, and schedules the whole batch as a single invocation. grantAt
// is the instant the slot was granted to the leader (slot free time
// already applied). Selection is greedy with two guards: a member joins
// only if it strictly shrinks total busy time versus running solo, and
// only while the batch duration respects the fairness cap.
func (s *Schedule) refGrantBatch(
	pu pendingUnit, u Unit, grantAt time.Duration, h *refDurHeap,
	pend *refUnitHeap, tasks []Task, seqs map[int]int,
	remaining []int, finish []time.Duration,
	busy map[string]time.Duration, res *Result,
	jobResBusy func(int, string, time.Duration),
	completeTask func(int, time.Duration), scheduled *int,
) {
	p := s.Batching
	maxMembers := p.MaxBatch
	if maxMembers < 1 {
		maxMembers = 1
	}
	type memberRef struct {
		pu   pendingUnit
		unit Unit
	}
	members := []memberRef{{pu, u}}
	jobsIn := map[int]bool{tasks[pu.taskIdx].Job: true}
	maxBase, maxTmpl, maxDecode := u.Batch.Base, u.Batch.TemplatePrefill, u.Batch.Decode
	sumPayload := u.Batch.PayloadPrefill
	payloads := map[string]time.Duration{}
	payloadCommit(payloads, u.Batch)
	// The fairness cap never undercuts the leader's own solo duration:
	// a call too big to fit the cap alone still has to run.
	capLimit := p.FairnessCap
	if capLimit > 0 && u.Dur > capLimit {
		capLimit = u.Dur
	}

	if maxMembers > 1 {
		windowEnd := grantAt + p.Window
		var cands []pendingUnit
		for _, c := range *pend {
			cu := tasks[c.taskIdx].Units[c.unitIdx]
			if cu.Batch == nil || cu.Batch.Key != u.Batch.Key || cu.Resource != u.Resource {
				continue
			}
			if c.ready > windowEnd || jobsIn[c.job] {
				continue
			}
			cands = append(cands, c)
		}
		sort.Slice(cands, func(i, j int) bool { return unitLess(cands[i], cands[j]) })
		taken := make(map[[2]int]bool)
		for _, c := range cands {
			if len(members) >= maxMembers {
				break
			}
			if jobsIn[c.job] { // one unit per job: cross-query batching only
				continue
			}
			cu := tasks[c.taskIdx].Units[c.unitIdx]
			nb, nt, nd := maxBase, maxTmpl, maxDecode
			if cu.Batch.Base > nb {
				nb = cu.Batch.Base
			}
			if cu.Batch.TemplatePrefill > nt {
				nt = cu.Batch.TemplatePrefill
			}
			if cu.Batch.Decode > nd {
				nd = cu.Batch.Decode
			}
			np := sumPayload + payloadCharge(payloads, cu.Batch)
			newD := batchedDur(nb, nt, nd, np, len(members)+1)
			if newD-batchedDur(maxBase, maxTmpl, maxDecode, sumPayload, len(members)) >= cu.Dur {
				continue // joining would not shrink total busy time
			}
			if capLimit > 0 && newD > capLimit {
				continue
			}
			maxBase, maxTmpl, maxDecode, sumPayload = nb, nt, nd, np
			payloadCommit(payloads, cu.Batch)
			members = append(members, memberRef{c, cu})
			jobsIn[c.job] = true
			taken[[2]int{c.taskIdx, c.unitIdx}] = true
		}
		if len(taken) > 0 {
			kept := (*pend)[:0]
			for _, c := range *pend {
				if !taken[[2]int{c.taskIdx, c.unitIdx}] {
					kept = append(kept, c)
				}
			}
			*pend = kept
			heap.Init(pend)
		}
	}

	// Hold the door: the batch starts once its latest member is ready
	// (bounded by grantAt + Window through candidate eligibility).
	bstart := grantAt
	for _, m := range members {
		if m.pu.ready > bstart {
			bstart = m.pu.ready
		}
	}
	D := batchedDur(maxBase, maxTmpl, maxDecode, sumPayload, len(members))
	if len(members) == 1 {
		// A batch of one costs exactly the unbatched duration even if
		// the spec's parts carry rounding drift.
		D = u.Dur
	}
	end := bstart + D
	heap.Push(h, end)
	busy[u.Resource] += D

	// Attribute the invocation to members by solo-duration-weighted
	// shares; the rounding residue lands on the leader so the shares sum
	// exactly to D (conservation invariant).
	var wsum time.Duration
	for _, m := range members {
		wsum += m.unit.Dur
	}
	shares := make([]time.Duration, len(members))
	var ssum time.Duration
	for i, m := range members {
		if wsum > 0 {
			shares[i] = time.Duration(float64(D) * float64(m.unit.Dur) / float64(wsum))
		}
		ssum += shares[i]
	}
	shares[0] += D - ssum

	grant := BatchGrant{Resource: u.Resource, Key: u.Batch.Key, GrantAt: grantAt, Start: bstart, Dur: D}
	for i, m := range members {
		mt := &tasks[m.pu.taskIdx]
		wait := bstart - m.pu.ready
		res.JobBusy[mt.Job] += shares[i]
		jobResBusy(mt.Job, u.Resource, shares[i])
		res.JobWait[mt.Job] += wait
		res.TaskWait[mt.ID] += wait
		res.JobGrants[mt.Job]++
		grant.Members = append(grant.Members, BatchMember{
			Task: mt.ID, Job: mt.Job, Ready: m.pu.ready, Wait: wait, Solo: m.unit.Dur, Share: shares[i],
		})
		*scheduled++
		remaining[m.pu.taskIdx]--
		if mt.Sequential && m.pu.unitIdx+1 < len(mt.Units) {
			heap.Push(pend, pendingUnit{m.pu.taskIdx, m.pu.unitIdx + 1, end, mt.Priority, seqs[mt.Job], mt.Job})
			seqs[mt.Job]++
		}
		if end > finish[m.pu.taskIdx] {
			finish[m.pu.taskIdx] = end
		}
		if remaining[m.pu.taskIdx] == 0 {
			completeTask(m.pu.taskIdx, finish[m.pu.taskIdx])
		}
	}
	res.Batches = append(res.Batches, grant)
}

// refDurHeap is a min-heap of slot-free times.
type refDurHeap []time.Duration

func (h refDurHeap) Len() int            { return len(h) }
func (h refDurHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refDurHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refDurHeap) Push(x interface{}) { *h = append(*h, x.(time.Duration)) }
func (h *refDurHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// randomTasks draws a task graph: up to 12 tasks over up to 4 jobs,
// dependencies on earlier tasks only, a mix of parallel and sequential
// tasks, limited and unlimited resources on up to 3 machines, durations
// from a small set so that ready times tie, and — when batched — units
// carrying one of two batch keys and shared or unique payloads.
func randomTasks(rng *rand.Rand, machines int, batched bool) []Task {
	tasks := make([]Task, rng.Intn(12))
	for i := range tasks {
		t := Task{
			ID:         fmt.Sprintf("t%d", i),
			Sequential: rng.Intn(3) == 0,
			Job:        rng.Intn(4),
		}
		t.Priority = t.Job % 2 // one priority per job
		for d := 0; d < i; d++ {
			if rng.Intn(4) == 0 {
				t.Deps = append(t.Deps, tasks[d].ID)
			}
		}
		for n := rng.Intn(6); n > 0; n-- {
			un := Unit{Dur: time.Duration(1+rng.Intn(4)) * 50 * time.Millisecond}
			if rng.Intn(5) > 0 {
				un.Resource = MachineResource(rng.Intn(machines))
			}
			if batched && un.Resource != "" && rng.Intn(4) > 0 {
				payload := time.Duration(rng.Intn(3)) * 10 * time.Millisecond
				un = bu([]string{"filter", "extract"}[rng.Intn(2)], int(payload/time.Millisecond), 20*(1+rng.Intn(3)))
				un.Resource = MachineResource(rng.Intn(machines))
				if rng.Intn(2) == 0 {
					un.Batch.PayloadKey = fmt.Sprintf("chunk-%d", rng.Intn(3))
				}
			}
			t.Units = append(t.Units, un)
		}
		tasks[i] = t
	}
	return tasks
}

// TestRunMatchesContainerHeapReference: over 10,000 random task sets,
// with and without a batch policy, the typed heaps grant slots in exactly
// the order container/heap did — every field of the Result is equal.
func TestRunMatchesContainerHeapReference(t *testing.T) {
	sets := 10000
	if testing.Short() {
		sets = 1000
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < sets; i++ {
		machines := 1 + rng.Intn(3)
		s := NewCluster(machines, 1+rng.Intn(3))
		batched := i%2 == 1
		if batched {
			s.Batching = &BatchPolicy{
				Window:      time.Duration(rng.Intn(3)) * 50 * time.Millisecond,
				FairnessCap: time.Duration(rng.Intn(3)) * 300 * time.Millisecond,
				MaxBatch:    1 + rng.Intn(4),
			}
		}
		tasks := randomTasks(rng, machines, batched)
		got, gotErr := s.Run(tasks)
		want, wantErr := s.refRun(tasks)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("set %d: Run error %v, reference %v", i, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d (batched=%v): Run differs from the container/heap reference:\n got %+v\nwant %+v", i, batched, got, want)
		}
	}
}

// TestRunHeapsDoNotBox pins the point of the typed heaps: scheduling 64
// more units costs no more allocations than the slices that hold them.
func TestRunHeapsDoNotBox(t *testing.T) {
	graph := func(units int) []Task {
		t := Task{ID: "scan"}
		for i := 0; i < units; i++ {
			t.Units = append(t.Units, u(100))
		}
		return []Task{t}
	}
	s := NewSchedule(4)
	small, large := graph(64), graph(128)
	run := func(tasks []Task) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := s.Run(tasks); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := run(small), run(large)
	t.Logf("Run: %v allocations for 64 units, %v for 128", a, b)
	// Doubling the pending queue reallocates it once more; the boxed
	// heaps paid two allocations per extra unit (128 here).
	if b-a > 4 {
		t.Errorf("64 extra units cost %v extra allocations, want <= 4", b-a)
	}
}
