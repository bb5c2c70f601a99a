// Package vtime computes simulated wall-clock latency for plan executions.
//
// The paper evaluates end-to-end latency on a server hosting 4 local LLM
// instances; LLM call time dominates and is proportional to output tokens.
// Rather than sleeping, this reproduction records every LLM call and every
// pre-programmed computation as work units, then list-schedules them on a
// model of the machine: a slot-limited "llm" resource pool plus an
// unlimited CPU resource. The resulting makespan is the simulated latency.
// Deterministic tie-breaking makes latencies reproducible bit-for-bit.
package vtime

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Unit is one indivisible piece of work: a single LLM invocation (possibly
// covering a batched prompt) or a block of programmed computation.
type Unit struct {
	Dur      time.Duration
	Resource string // "" means unlimited (CPU-style) resource

	// Batch carries the unit's continuous-batching cost decomposition.
	// Nil units never coalesce. Ignored unless the schedule has a
	// BatchPolicy.
	Batch *BatchSpec
}

// BatchSpec decomposes a batchable LLM call's duration into the parts
// the continuous-batching cost model combines. The parts sum to the
// unit's Dur, so a batch of one costs exactly the unbatched duration.
type BatchSpec struct {
	// Key is the co-scheduling compatibility key (task family + model +
	// prompt template). Only units with equal keys on the same resource
	// may share an invocation.
	Key string
	// Base is the fixed per-invocation overhead — paid once per batch.
	Base time.Duration
	// Decode is the output-token generation time. A batch decodes its
	// members near-concurrently: it pays the largest member's Decode,
	// inflated by BatchDecodeSlowdown per extra member.
	Decode time.Duration
	// TemplatePrefill is the prefill cost of the shared prompt template
	// (directive + field scaffold) — paid once per batch, at the largest
	// member's size.
	TemplatePrefill time.Duration
	// PayloadPrefill is the prefill cost of the member's own document
	// payload — paid once per distinct payload (see PayloadKey).
	PayloadPrefill time.Duration
	// PayloadKey identifies the member's document payload. Members of
	// one batch with equal non-empty keys scan the same documents
	// (different queries over the same corpus chunk), so the batch
	// prefills that payload once and they share the charge. An empty key
	// means the payload is unique: it is always charged in full.
	PayloadKey string
}

// BatchDecodeSlowdown is the decode-bandwidth interference of continuous
// batching: a k-member batch's decode phase takes the largest member's
// decode time scaled by 1 + BatchDecodeSlowdown·(k−1), modeling the
// shared GPU's per-token throughput dropping as the batch widens (versus
// k× for fully serialized decoding).
const BatchDecodeSlowdown = 0.15

// BatchPolicy enables cross-query continuous batching in Run and sets
// its knobs. A nil policy (the default) disables coalescing entirely;
// the schedule is then byte-identical to the pre-batching scheduler.
type BatchPolicy struct {
	// Window is the virtual-time hold-the-door interval: when a slot is
	// granted to a batchable unit at time g, compatible units becoming
	// ready in (g, g+Window] may join, and the batch starts at the
	// latest member's ready time (never later than g+Window).
	Window time.Duration
	// FairnessCap bounds a multi-member batch's duration (unless the
	// leader's own solo duration already exceeds it), so one heavy
	// scan's chunks cannot grow batches that monopolize a slot and
	// starve light queries queued behind it. 0 means uncapped.
	FairnessCap time.Duration
	// MaxBatch bounds the member count of one invocation. 0 means 1
	// (no coalescing).
	MaxBatch int
}

// BatchGrant records one slot grant of a batchable unit: the invocation
// that occupied the slot and every member call folded into it. Grants
// with a single member ran unbatched at exactly their solo duration.
type BatchGrant struct {
	Resource string
	Key      string
	// GrantAt is the instant the slot was granted to the leader;
	// Start is the batch's actual start after hold-the-door deferral
	// (Start − GrantAt ≤ the policy window); Dur is the batched
	// invocation's total duration.
	GrantAt time.Duration
	Start   time.Duration
	Dur     time.Duration
	// Members lists the coalesced calls, leader first. Jobs are
	// pairwise distinct: batching is cross-query only.
	Members []BatchMember
}

// BatchMember is one call inside a batched invocation.
type BatchMember struct {
	Task string
	Job  int
	// Ready is when the unit became eligible; Wait = Start − Ready is
	// its slot-grant delay; Solo is its unbatched duration; Share is
	// its attributed slice of the batch duration (shares sum exactly
	// to the grant's Dur).
	Ready time.Duration
	Wait  time.Duration
	Solo  time.Duration
	Share time.Duration
}

// Task is a schedulable node: typically one physical operator execution.
// Units of a task may run concurrently unless Sequential is set. A task
// becomes ready when all its dependencies have fully completed.
type Task struct {
	ID         string
	Deps       []string
	Units      []Unit
	Sequential bool // units must run one after another (chained prompts)

	// Job identifies the owning query in a multi-query schedule. Tasks of
	// one job form a per-query FIFO; when units of different jobs become
	// ready at the same instant, slot grants round-robin across jobs (the
	// unit that has had the fewest earlier grants in its own job wins).
	// Single-job schedules (all zero) behave exactly as before.
	Job int
	// Priority breaks ready-time ties before the fair queue: units of a
	// higher-priority job are granted first.
	Priority int
}

// Schedule is a machine model: capacity per named resource. Resources not
// present are treated as unlimited.
type Schedule struct {
	Capacity map[string]int

	// Batching, when non-nil, lets compatible units of DIFFERENT jobs
	// coalesce into one slot grant (continuous batching). Formation is a
	// pure function of the task graph and the deterministic grant order,
	// so batched schedules replay bit-for-bit.
	Batching *BatchPolicy
}

// NewSchedule returns a machine model with the given number of LLM slots.
func NewSchedule(llmSlots int) *Schedule {
	if llmSlots < 1 {
		llmSlots = 1
	}
	return &Schedule{Capacity: map[string]int{ResourceLLM: llmSlots}}
}

// ResourceLLM is the canonical resource name for LLM server slots.
const ResourceLLM = "llm"

// MachineResource names the LLM slot resource of one machine in a
// simulated cluster. Machine 0 keeps the canonical "llm" name, so a
// one-machine cluster is byte-identical to the single-machine model.
func MachineResource(m int) string {
	if m <= 0 {
		return ResourceLLM
	}
	return fmt.Sprintf("llm@%d", m)
}

// NewCluster returns a machine model for an M-machine cluster: each
// machine contributes slotsPer LLM slots as its own limited resource,
// all sharing one virtual clock. NewCluster(1, s) is NewSchedule(s).
func NewCluster(machines, slotsPer int) *Schedule {
	if machines < 1 {
		machines = 1
	}
	if slotsPer < 1 {
		slotsPer = 1
	}
	cap := make(map[string]int, machines)
	for m := 0; m < machines; m++ {
		cap[MachineResource(m)] = slotsPer
	}
	return &Schedule{Capacity: cap}
}

// MachineOf reports which cluster machine a resource name belongs to
// (false for unlimited CPU-style resources).
func MachineOf(resource string) (int, bool) {
	if resource == ResourceLLM {
		return 0, true
	}
	if strings.HasPrefix(resource, "llm@") {
		if m, err := strconv.Atoi(resource[len("llm@"):]); err == nil && m > 0 {
			return m, true
		}
	}
	return 0, false
}

// Result reports the outcome of scheduling a task graph.
type Result struct {
	Makespan time.Duration
	// Finish maps task ID to its completion time.
	Finish map[string]time.Duration
	// Busy maps resource name to total busy time across slots.
	Busy map[string]time.Duration

	// JobBusy, JobWait, JobGrants, and JobEnd break the schedule down per
	// job for multi-query runs: slot busy time, total slot-grant delay
	// (grant start minus unit ready) on limited resources, number of slot
	// grants, and last task completion.
	JobBusy   map[int]time.Duration
	JobWait   map[int]time.Duration
	JobGrants map[int]int
	JobEnd    map[int]time.Duration

	// TaskWait breaks the slot-grant delay down per task, attributing
	// contention to individual operators (sums to the JobWait totals).
	TaskWait map[string]time.Duration

	// JobResBusy breaks each job's slot busy time down per limited
	// resource (machine), attributing a batched invocation's duration to
	// its members by solo-duration-weighted shares.
	JobResBusy map[int]map[string]time.Duration

	// SlotFree reports, per limited resource, the time each slot becomes
	// free after the schedule (ascending). Unlimited resources are absent.
	SlotFree map[string][]time.Duration

	// Batches records every slot grant of a batchable unit (including
	// single-member grants) in grant order. Empty without a BatchPolicy.
	Batches []BatchGrant
}

type pendingUnit struct {
	taskIdx int
	unitIdx int
	ready   time.Duration // earliest start
	prio    int           // job priority (higher first)
	jseq    int           // per-job tie-break sequence (FIFO within a job)
	job     int           // owning job (round-robin across jobs on ties)
}

// unitLess is the deterministic grant order: earliest ready first, then
// higher priority, then per-job FIFO sequence, then job index. The heap
// and batch-candidate selection share it so batch composition follows
// exactly the order units would have been granted solo.
func unitLess(a, b pendingUnit) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.jseq != b.jseq {
		return a.jseq < b.jseq
	}
	return a.job < b.job
}

// minHeap is a binary heap ordered by less. push, pop and init sift
// exactly as container/heap's up, down and Init do, so entries that
// compare equal leave in the order they would leave a container/heap —
// the grant order of a schedule depends on that order. Unlike
// container/heap it moves no element through an interface, so a push or
// a pop allocates nothing.
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	a := h.items
	for j := len(a) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(a[j], a[i]) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *minHeap[T]) pop() T {
	a := h.items
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	h.down(0, n)
	h.items = a[:n]
	return a[n]
}

// init establishes the heap order over whatever items holds.
func (h *minHeap[T]) init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *minHeap[T]) down(i, n int) {
	a := h.items
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(a[j2], a[j]) {
			j = j2
		}
		if !h.less(a[j], a[i]) {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
}

func durLess(a, b time.Duration) bool { return a < b }

// jobCount bounds the number of distinct jobs among tasks from above: the
// span of their job numbers, or the task count when those are sparse.
func jobCount(tasks []Task) int {
	if len(tasks) == 0 {
		return 0
	}
	lo, hi := tasks[0].Job, tasks[0].Job
	for _, t := range tasks[1:] {
		lo, hi = min(lo, t.Job), max(hi, t.Job)
	}
	if n := hi - lo + 1; n > 0 && n < len(tasks) {
		return n
	}
	return len(tasks)
}

// Run schedules the task graph and returns its makespan. It returns an
// error on unknown dependencies or dependency cycles.
func (s *Schedule) Run(tasks []Task) (Result, error) {
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

	// Resource state: per resource, a min-heap of slot free times (all
	// zero to begin with, which is a heap already).
	free := make(map[string]*minHeap[time.Duration], len(s.Capacity))
	slotHeap := func(res string) *minHeap[time.Duration] {
		h, ok := free[res]
		if !ok {
			cap, limited := s.Capacity[res]
			if !limited {
				return nil // unlimited
			}
			h = &minHeap[time.Duration]{items: make([]time.Duration, cap), less: durLess}
			free[res] = h
		}
		return h
	}

	// The result maps are sized up front: one entry per task, per job or
	// per limited resource.
	jobs := jobCount(tasks)
	pend := &minHeap[pendingUnit]{less: unitLess}
	seqs := make(map[int]int, jobs) // per-job FIFO sequence counters
	enqueueTask := func(i int, at time.Duration) {
		started[i] = true
		taskReady[i] = at
		t := &tasks[i]
		if len(t.Units) == 0 {
			return // completed immediately; handled by caller
		}
		if t.Sequential {
			pend.push(pendingUnit{i, 0, at, t.Priority, seqs[t.Job], t.Job})
			seqs[t.Job]++
			nextUnit[i] = 0
			return
		}
		for u := range t.Units {
			pend.push(pendingUnit{i, u, at, t.Priority, seqs[t.Job], t.Job})
			seqs[t.Job]++
		}
	}

	busy := make(map[string]time.Duration, len(s.Capacity))
	res := Result{
		Finish:     make(map[string]time.Duration, len(tasks)),
		Busy:       busy,
		JobBusy:    make(map[int]time.Duration, jobs),
		JobWait:    make(map[int]time.Duration, jobs),
		JobGrants:  make(map[int]int, jobs),
		JobEnd:     make(map[int]time.Duration, jobs),
		TaskWait:   make(map[string]time.Duration, len(tasks)),
		JobResBusy: make(map[int]map[string]time.Duration, jobs),
	}
	jobResBusy := func(job int, resName string, d time.Duration) {
		m := res.JobResBusy[job]
		if m == nil {
			m = make(map[string]time.Duration, len(s.Capacity))
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

	for len(pend.items) > 0 {
		pu := pend.pop()
		t := &tasks[pu.taskIdx]
		u := t.Units[pu.unitIdx]
		start := pu.ready
		h := slotHeap(u.Resource)
		if h != nil {
			if slotFree := h.pop(); slotFree > start {
				start = slotFree
			}
		}

		if h != nil && s.Batching != nil && u.Batch != nil && u.Batch.Key != "" {
			// Continuous batching: this slot grant may absorb compatible
			// pending units of other jobs. The helper pushes the slot's
			// next free time and performs all accounting for the members.
			s.grantBatch(pu, u, start, h, pend, tasks, seqs, remaining, finish, busy, &res, jobResBusy, completeTask, &scheduled)
			continue
		}

		end := start + u.Dur
		if h != nil {
			h.push(end)
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
			pend.push(pendingUnit{pu.taskIdx, pu.unitIdx + 1, end, t.Priority, seqs[t.Job], t.Job})
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
	res.SlotFree = make(map[string][]time.Duration, len(free))
	for name, h := range free {
		times := append([]time.Duration(nil), h.items...)
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		res.SlotFree[name] = times
	}
	return res, nil
}

// batchedDur is the continuous-batching cost model: a k-member batch
// pays the largest member's base and template prefill once, each
// distinct payload's prefill once (sumPayload — members sharing a
// PayloadKey share the charge), and the largest member's decode inflated
// by BatchDecodeSlowdown per extra member.
func batchedDur(maxBase, maxTmpl, maxDecode, sumPayload time.Duration, k int) time.Duration {
	scaled := time.Duration(float64(maxDecode) * (1 + BatchDecodeSlowdown*float64(k-1)))
	return maxBase + maxTmpl + sumPayload + scaled
}

// payloadCharge returns the payload prefill a joining member adds to a
// batch whose per-key payload maxima are in groups. A member whose
// PayloadKey another member already brought charges only its excess over
// the largest same-key payload (zero for the identical payloads the key
// guarantees in practice); unique and keyless payloads charge in full.
func payloadCharge(groups map[string]time.Duration, sp *BatchSpec) time.Duration {
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

// payloadCommit records a member's payload in groups after it joins.
func payloadCommit(groups map[string]time.Duration, sp *BatchSpec) {
	if sp.PayloadKey == "" {
		return
	}
	if prev, ok := groups[sp.PayloadKey]; !ok || sp.PayloadPrefill > prev {
		groups[sp.PayloadKey] = sp.PayloadPrefill
	}
}

// grantBatch handles one slot grant of a batchable unit under a
// BatchPolicy: it selects co-schedulable pending units of other jobs
// (same key and resource, ready within the hold-the-door window, taken
// in the deterministic grant order), removes them from the pending
// queue, and schedules the whole batch as a single invocation. grantAt
// is the instant the slot was granted to the leader (slot free time
// already applied). Selection is greedy with two guards: a member joins
// only if it strictly shrinks total busy time versus running solo, and
// only while the batch duration respects the fairness cap.
func (s *Schedule) grantBatch(
	pu pendingUnit, u Unit, grantAt time.Duration, h *minHeap[time.Duration],
	pend *minHeap[pendingUnit], tasks []Task, seqs map[int]int,
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
		for _, c := range pend.items {
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
			kept := pend.items[:0]
			for _, c := range pend.items {
				if !taken[[2]int{c.taskIdx, c.unitIdx}] {
					kept = append(kept, c)
				}
			}
			pend.items = kept
			pend.init()
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
	h.push(end)
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
			pend.push(pendingUnit{m.pu.taskIdx, m.pu.unitIdx + 1, end, mt.Priority, seqs[mt.Job], mt.Job})
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

// Serial returns the makespan if every unit ran back-to-back on a single
// slot — a lower-level bound used in unit tests.
func Serial(tasks []Task) time.Duration {
	var total time.Duration
	for _, t := range tasks {
		for _, u := range t.Units {
			total += u.Dur
		}
	}
	return total
}

// SerialOperators computes the makespan when OPERATORS run strictly one
// after another (no DAG parallelism) while each operator still batches
// its own calls across the slot pool — the Unify-noLO ablation of
// Figure 5(a).
func (s *Schedule) SerialOperators(tasks []Task) (time.Duration, error) {
	chained := make([]Task, len(tasks))
	for i, t := range tasks {
		c := t
		c.Deps = nil
		if i > 0 {
			c.Deps = []string{tasks[i-1].ID}
		}
		chained[i] = c
	}
	res, err := s.Run(chained)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
