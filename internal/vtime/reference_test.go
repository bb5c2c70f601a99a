package vtime

// refRun is Schedule.Run as it stood when identity was a string: a task an
// ID that dependencies and result maps spell out, a machine a resource name
// ("llm", "llm@2") looked up in a capacity map. It is also the run from
// before the typed heaps — the pending queue and the slot-free times behind
// container/heap. Types and code are kept verbatim (identifiers renamed) as
// the reference the differential test at the end of this file holds Run to,
// field for field through the name-to-index table.

import (
	"container/heap"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

type refUnit struct {
	Dur      time.Duration
	Resource string // "" means unlimited (CPU-style) resource
	Batch    *BatchSpec
}

type refBatchGrant struct {
	Resource string
	Key      string
	GrantAt  time.Duration
	Start    time.Duration
	Dur      time.Duration
	Members  []refBatchMember
}

type refBatchMember struct {
	Task  string
	Job   int
	Ready time.Duration
	Wait  time.Duration
	Solo  time.Duration
	Share time.Duration
}

type refTask struct {
	ID         string
	Deps       []string
	Units      []refUnit
	Sequential bool
	Job        int
	Priority   int
}

// refSchedule is a machine model: capacity per named resource. Resources
// not present are treated as unlimited.
type refSchedule struct {
	Capacity map[string]int
	Batching *BatchPolicy
}

const refResourceLLM = "llm"

// refMachineResource names the LLM slot resource of one machine in a
// simulated cluster. Machine 0 keeps the canonical "llm" name.
func refMachineResource(m int) string {
	if m <= 0 {
		return refResourceLLM
	}
	return fmt.Sprintf("llm@%d", m)
}

func refNewCluster(machines, slotsPer int) *refSchedule {
	if machines < 1 {
		machines = 1
	}
	if slotsPer < 1 {
		slotsPer = 1
	}
	cap := make(map[string]int, machines)
	for m := 0; m < machines; m++ {
		cap[refMachineResource(m)] = slotsPer
	}
	return &refSchedule{Capacity: cap}
}

// refMachineOf reports which cluster machine a resource name belongs to
// (false for unlimited CPU-style resources).
func refMachineOf(resource string) (int, bool) {
	if resource == refResourceLLM {
		return 0, true
	}
	if strings.HasPrefix(resource, "llm@") {
		if m, err := strconv.Atoi(resource[len("llm@"):]); err == nil && m > 0 {
			return m, true
		}
	}
	return 0, false
}

type refResult struct {
	Makespan   time.Duration
	Finish     map[string]time.Duration
	Busy       map[string]time.Duration
	JobBusy    map[int]time.Duration
	JobWait    map[int]time.Duration
	JobGrants  map[int]int
	JobEnd     map[int]time.Duration
	TaskWait   map[string]time.Duration
	JobResBusy map[int]map[string]time.Duration
	SlotFree   map[string][]time.Duration
	Batches    []refBatchGrant
}

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
func (s *refSchedule) refRun(tasks []refTask) (refResult, error) {
	idx := make(map[string]int, len(tasks))
	for i, t := range tasks {
		if _, dup := idx[t.ID]; dup {
			return refResult{}, fmt.Errorf("vtime: duplicate task %q", t.ID)
		}
		idx[t.ID] = i
	}
	indeg := make([]int, len(tasks))
	succ := make([][]int, len(tasks))
	for i, t := range tasks {
		for _, d := range t.Deps {
			j, ok := idx[d]
			if !ok {
				return refResult{}, fmt.Errorf("vtime: task %q depends on unknown task %q", t.ID, d)
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
	res := refResult{
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
		return refResult{}, fmt.Errorf("vtime: dependency cycle involving %v", stuck)
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
func (s *refSchedule) refGrantBatch(
	pu pendingUnit, u refUnit, grantAt time.Duration, h *refDurHeap,
	pend *refUnitHeap, tasks []refTask, seqs map[int]int,
	remaining []int, finish []time.Duration,
	busy map[string]time.Duration, res *refResult,
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
		unit refUnit
	}
	members := []memberRef{{pu, u}}
	jobsIn := map[int]bool{tasks[pu.taskIdx].Job: true}
	maxBase, maxTmpl, maxDecode := u.Batch.Base, u.Batch.TemplatePrefill, u.Batch.Decode
	sumPayload := u.Batch.PayloadPrefill
	payloads := map[string]time.Duration{}
	refPayloadCommit(payloads, u.Batch)
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
			np := sumPayload + refPayloadCharge(payloads, cu.Batch)
			newD := batchedDur(nb, nt, nd, np, len(members)+1)
			if newD-batchedDur(maxBase, maxTmpl, maxDecode, sumPayload, len(members)) >= cu.Dur {
				continue // joining would not shrink total busy time
			}
			if capLimit > 0 && newD > capLimit {
				continue
			}
			maxBase, maxTmpl, maxDecode, sumPayload = nb, nt, nd, np
			refPayloadCommit(payloads, cu.Batch)
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

	grant := refBatchGrant{Resource: u.Resource, Key: u.Batch.Key, GrantAt: grantAt, Start: bstart, Dur: D}
	for i, m := range members {
		mt := &tasks[m.pu.taskIdx]
		wait := bstart - m.pu.ready
		res.JobBusy[mt.Job] += shares[i]
		jobResBusy(mt.Job, u.Resource, shares[i])
		res.JobWait[mt.Job] += wait
		res.TaskWait[mt.ID] += wait
		res.JobGrants[mt.Job]++
		grant.Members = append(grant.Members, refBatchMember{
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

// refPayloadCharge returns the payload prefill a joining member adds to a
// batch whose per-key payload maxima are in groups. A member whose
// PayloadKey another member already brought charges only its excess over
// the largest same-key payload (zero for the identical payloads the key
// guarantees in practice); unique and keyless payloads charge in full.
func refPayloadCharge(groups map[string]time.Duration, sp *BatchSpec) time.Duration {
	if sp.PayloadKey == "" {
		return sp.PayloadPrefill
	}
	if prev, ok := groups[sp.PayloadKey]; ok {
		if sp.PayloadPrefill > prev {
			return sp.PayloadPrefill - prev
		}
		return 0
	}
	return sp.PayloadPrefill
}

// refPayloadCommit records a member's payload in groups after it joins.
func refPayloadCommit(groups map[string]time.Duration, sp *BatchSpec) {
	if sp.PayloadKey == "" {
		return
	}
	if prev, ok := groups[sp.PayloadKey]; !ok || sp.PayloadPrefill > prev {
		groups[sp.PayloadKey] = sp.PayloadPrefill
	}
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

// randomTasks draws a task graph in the reference's string form: up to 12
// tasks over up to 4 sparsely numbered jobs, dependencies on earlier tasks
// only, a mix of parallel and sequential tasks, limited and unlimited
// resources on up to 3 machines — now and then one machine more than the
// cluster has — durations from a small set so that ready times tie, and,
// when batched, units carrying one of two batch keys and shared or unique
// payloads.
func randomTasks(rng *rand.Rand, machines int, batched bool) []refTask {
	tasks := make([]refTask, rng.Intn(12))
	resource := func() string {
		if rng.Intn(16) == 0 {
			return refMachineResource(machines)
		}
		return refMachineResource(rng.Intn(machines))
	}
	for i := range tasks {
		t := refTask{
			ID:         fmt.Sprintf("t%d", i),
			Sequential: rng.Intn(3) == 0,
			Job:        []int{0, 1, 5, 19}[rng.Intn(4)],
		}
		t.Priority = t.Job % 2 // one priority per job
		for d := 0; d < i; d++ {
			if rng.Intn(4) == 0 {
				t.Deps = append(t.Deps, tasks[d].ID)
			}
		}
		for n := rng.Intn(6); n > 0; n-- {
			un := refUnit{Dur: time.Duration(1+rng.Intn(4)) * 50 * time.Millisecond}
			if rng.Intn(5) > 0 {
				un.Resource = resource()
			}
			if batched && un.Resource != "" && rng.Intn(4) > 0 {
				b := bu([]string{"filter", "extract"}[rng.Intn(2)], 10*rng.Intn(3), 20*(1+rng.Intn(3)))
				un = refUnit{Dur: b.Dur, Resource: resource(), Batch: b.Batch}
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

// indexed converts a reference graph to the form Run takes: the ID becomes
// the label, each dependency the index at resolves it to, each resource
// name the machine it spells.
func indexed(ref []refTask) []Task {
	tasks := make([]Task, len(ref))
	for i, rt := range ref {
		tasks[i] = Task{Label: rt.ID, Sequential: rt.Sequential, Job: rt.Job, Priority: rt.Priority}
		for _, ru := range rt.Units {
			un := Unit{Dur: ru.Dur, Batch: ru.Batch}
			if m, ok := refMachineOf(ru.Resource); ok {
				un.Pool = OnMachine(m)
			}
			tasks[i].Units = append(tasks[i].Units, un)
		}
	}
	for _, rt := range ref {
		after(tasks, rt.ID, rt.Deps...)
	}
	return tasks
}

// named renders a Result in the reference's form: tasks by label, machines
// by resource name, the per-job slice as the four maps.
func named(res Result, tasks []Task) refResult {
	out := refResult{
		Makespan: res.Makespan,
		Finish:   map[string]time.Duration{}, TaskWait: map[string]time.Duration{},
		Busy: map[string]time.Duration{}, SlotFree: map[string][]time.Duration{},
		JobBusy: map[int]time.Duration{}, JobWait: map[int]time.Duration{},
		JobGrants: map[int]int{}, JobEnd: map[int]time.Duration{},
	}
	for i, t := range tasks {
		out.Finish[t.Label] = res.Finish[i]
		out.TaskWait[t.Label] = res.TaskWait[i]
	}
	for j, js := range res.Jobs {
		out.JobBusy[j], out.JobWait[j], out.JobGrants[j], out.JobEnd[j] = js.Busy, js.Wait, js.Grants, js.End
	}
	for m := range res.Busy {
		out.Busy[refMachineResource(m)] = res.Busy[m]
		out.SlotFree[refMachineResource(m)] = res.SlotFree[m]
	}
	for _, g := range res.Batches {
		rg := refBatchGrant{Resource: refMachineResource(g.Machine), Key: g.Key, GrantAt: g.GrantAt, Start: g.Start, Dur: g.Dur}
		for _, m := range g.Members {
			rg.Members = append(rg.Members, refBatchMember{tasks[m.Task].Label, m.Job, m.Ready, m.Wait, m.Solo, m.Share})
		}
		out.Batches = append(out.Batches, rg)
	}
	return out
}

// dropZeros deletes what an absent key reads as anyway. The reference's
// maps hold only the tasks, jobs and machines a schedule touched, where
// Result's slices hold a zero for the rest: zero durations and counts go
// from both sides, and with them the free times of a machine whose slots
// were never used. JobResBusy, which Result no longer carries, goes too.
func dropZeros(r refResult) refResult {
	zeroDur := func(_ string, d time.Duration) bool { return d == 0 }
	zeroJobDur := func(_ int, d time.Duration) bool { return d == 0 }
	maps.DeleteFunc(r.TaskWait, zeroDur)
	maps.DeleteFunc(r.Busy, zeroDur)
	maps.DeleteFunc(r.JobBusy, zeroJobDur)
	maps.DeleteFunc(r.JobWait, zeroJobDur)
	maps.DeleteFunc(r.JobEnd, zeroJobDur)
	maps.DeleteFunc(r.JobGrants, func(_ int, n int) bool { return n == 0 })
	maps.DeleteFunc(r.SlotFree, func(_ string, free []time.Duration) bool {
		return !slices.ContainsFunc(free, func(d time.Duration) bool { return d != 0 })
	})
	r.JobResBusy = nil
	return r
}

// TestRunMatchesReference: over 10,000 random task sets, with and without
// a batch policy, on one to three machines, Run over indices computes what
// the string-keyed reference does — every field of the Result, Batches
// included.
func TestRunMatchesReference(t *testing.T) {
	sets := 10000
	if testing.Short() {
		sets = 1000
	}
	rng := rand.New(rand.NewSource(24))
	coalesced := 0
	for i := 0; i < sets; i++ {
		machines, slots := 1+rng.Intn(3), 1+rng.Intn(3)
		s, rs := NewCluster(machines, slots), refNewCluster(machines, slots)
		batched := i%2 == 1
		if batched {
			s.Batching = &BatchPolicy{
				Window:      time.Duration(rng.Intn(3)) * 50 * time.Millisecond,
				FairnessCap: time.Duration(rng.Intn(3)) * 300 * time.Millisecond,
				MaxBatch:    1 + rng.Intn(4),
			}
			rs.Batching = s.Batching
		}
		ref := randomTasks(rng, machines, batched)
		tasks := indexed(ref)
		res, err := s.Run(tasks)
		want, wantErr := rs.refRun(ref)
		if err != nil || wantErr != nil {
			t.Fatalf("set %d: Run error %v, reference %v", i, err, wantErr)
		}
		if len(want.Finish) != len(tasks) {
			t.Fatalf("set %d: the reference finished %d of %d tasks", i, len(want.Finish), len(tasks))
		}
		if got, want := dropZeros(named(res, tasks)), dropZeros(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d (batched=%v): Run differs from the reference:\n got %+v\nwant %+v", i, batched, got, want)
		}
		for _, g := range res.Batches {
			if len(g.Members) > 1 {
				coalesced++
			}
		}
	}
	if coalesced < sets/10 {
		t.Errorf("only %d multi-member batches in %d sets: the draw no longer exercises coalescing", coalesced, sets)
	}
}

// TestRunHeapsDoNotBox pins the point of the typed heaps: scheduling 64
// more units costs no more allocations than the slices that hold them.
func TestRunHeapsDoNotBox(t *testing.T) {
	graph := func(units int) []Task {
		t := Task{Label: "scan"}
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
