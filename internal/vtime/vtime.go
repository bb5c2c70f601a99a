// Package vtime computes simulated wall-clock latency for plan executions.
//
// The paper evaluates end-to-end latency on a server hosting 4 local LLM
// instances; LLM call time dominates and is proportional to output tokens.
// Rather than sleeping, this reproduction records every LLM call and every
// pre-programmed computation as work units, then list-schedules them on a
// model of the machine: a slot-limited LLM pool per machine plus unlimited
// CPU. The resulting makespan is the simulated latency. Deterministic
// tie-breaking makes latencies reproducible bit-for-bit.
//
// Identity is positional: a task is its index in the slice handed to Run,
// a machine and a job are numbers, and results are slices over them.
package vtime

import (
	"fmt"
	"slices"
	"time"
)

// Unit is one indivisible piece of work: a single LLM invocation (possibly
// covering a batched prompt) or a block of programmed computation.
type Unit struct {
	Dur time.Duration
	// Pool is the slot pool the unit waits for and occupies: OnMachine(m)
	// for an LLM call served by machine m. The zero Pool is programmed
	// computation, which needs no slot.
	Pool Pool

	// Batch carries the unit's continuous-batching cost decomposition.
	// Nil units never coalesce. Ignored unless the schedule has a
	// BatchPolicy.
	Batch *BatchSpec
}

// Pool names a slot pool by machine: zero is no pool, 1+m is machine m's.
type Pool int

// OnMachine is the LLM slot pool of machine m (numbered from 0).
func OnMachine(m int) Pool { return Pool(m + 1) }

// BatchSpec decomposes a batchable LLM call's duration into the parts
// the continuous-batching cost model combines. The parts sum to the
// unit's Dur, so a batch of one costs exactly the unbatched duration.
type BatchSpec struct {
	// Key is the co-scheduling compatibility key (task family + model +
	// prompt template). Only units with equal keys on the same machine
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
	Machine int
	Key     string
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
	Task int // index into the slice handed to Run
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
	// Label names the task in error text and test goldens. Nothing is
	// keyed by it and production leaves it empty.
	Label string
	// Deps are the tasks this one waits for, as indices into the slice
	// handed to Run (in any order; forward references are fine).
	Deps       []int
	Units      []Unit
	Sequential bool // units must run one after another (chained prompts)

	// Job identifies the owning query in a multi-query schedule (>= 0).
	// Tasks of one job form a per-query FIFO; when units of different jobs
	// become ready at the same instant, slot grants round-robin across jobs
	// (the unit that has had the fewest earlier grants in its own job
	// wins). Single-job schedules (all zero) behave exactly as before.
	Job int
	// Priority breaks ready-time ties before the fair queue: units of a
	// higher-priority job are granted first.
	Priority int
}

// Schedule is a machine model: identical machines, each with its own LLM
// slots, on one virtual clock. A unit naming a machine the model lacks
// finds no slots to wait for and runs as programmed work does.
type Schedule struct {
	machines, slots int

	// Batching, when non-nil, lets compatible units of DIFFERENT jobs
	// coalesce into one slot grant (continuous batching). Formation is a
	// pure function of the task graph and the deterministic grant order,
	// so batched schedules replay bit-for-bit.
	Batching *BatchPolicy
}

// NewSchedule returns a one-machine model with llmSlots LLM slots.
func NewSchedule(llmSlots int) *Schedule { return NewCluster(1, llmSlots) }

// NewCluster returns a machine model for an M-machine cluster with
// slotsPer LLM slots on each machine.
func NewCluster(machines, slotsPer int) *Schedule {
	return &Schedule{machines: max(machines, 1), slots: max(slotsPer, 1)}
}

// JobStats is one job's share of a schedule.
type JobStats struct {
	// Busy is the job's slot busy time (a batched invocation is split over
	// its members by solo-duration-weighted shares); Wait its total delay
	// from unit ready to slot grant; End its last task's completion.
	Busy, Wait time.Duration
	Grants     int
	End        time.Duration
}

// Result reports the outcome of scheduling a task graph.
type Result struct {
	Makespan time.Duration
	// Finish is each task's completion time and TaskWait its slot-grant
	// delay (summing to the jobs' Wait), both by task index.
	Finish   []time.Duration
	TaskWait []time.Duration
	// Jobs is the per-job breakdown, by job number.
	Jobs []JobStats
	// Busy is each machine's total busy time across its slots, and
	// SlotFree the times its slots become free after the schedule
	// (ascending), both by machine number.
	Busy     []time.Duration
	SlotFree [][]time.Duration

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

// run is the state of one Run.
type run struct {
	s     *Schedule
	tasks []Task
	res   Result

	indeg     []int   // unfinished dependencies per task
	succ      [][]int // dependents per task, in task order
	remaining []int   // unfinished units per task
	started   []bool
	done      int // completed tasks

	free []minHeap[time.Duration] // per machine: slot free times
	pend minHeap[pendingUnit]
	seq  []int // per-job FIFO sequence counters
}

// name is task i's label for error text.
func (r *run) name(i int) string {
	if l := r.tasks[i].Label; l != "" {
		return l
	}
	return fmt.Sprintf("#%d", i)
}

// Run schedules the task graph and returns its makespan. It returns an
// error on unknown dependencies or dependency cycles.
func (s *Schedule) Run(tasks []Task) (Result, error) {
	n := len(tasks)
	r := run{
		s: s, tasks: tasks,
		indeg: make([]int, n), succ: make([][]int, n), remaining: make([]int, n), started: make([]bool, n),
		free: make([]minHeap[time.Duration], s.machines),
		pend: minHeap[pendingUnit]{less: unitLess},
	}
	jobs := 0
	for i, t := range tasks {
		if t.Job < 0 {
			return Result{}, fmt.Errorf("vtime: task %s has negative job %d", r.name(i), t.Job)
		}
		jobs = max(jobs, t.Job+1)
		r.remaining[i] = len(t.Units)
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return Result{}, fmt.Errorf("vtime: task %s depends on unknown task %d", r.name(i), d)
			}
			r.indeg[i]++
			r.succ[d] = append(r.succ[d], i)
		}
	}
	r.seq = make([]int, jobs)
	// Every slot is free at zero, which is a heap already.
	slotFree := make([]time.Duration, s.machines*s.slots)
	for m := range r.free {
		r.free[m] = minHeap[time.Duration]{items: slotFree[m*s.slots : (m+1)*s.slots : (m+1)*s.slots], less: durLess}
	}
	r.res = Result{
		Finish:   make([]time.Duration, n),
		TaskWait: make([]time.Duration, n),
		Jobs:     make([]JobStats, jobs),
		Busy:     make([]time.Duration, s.machines),
		SlotFree: make([][]time.Duration, s.machines),
	}

	// Seed roots deterministically in declaration order. Tasks already
	// released by a zero-unit root's completion are skipped.
	for i := range tasks {
		if r.indeg[i] == 0 && !r.started[i] {
			r.release(i, 0)
		}
	}

	for len(r.pend.items) > 0 {
		pu := r.pend.pop()
		u := tasks[pu.taskIdx].Units[pu.unitIdx]
		h := r.slotsOf(u.Pool)
		if h == nil {
			r.unitDone(pu, pu.ready+u.Dur)
			continue
		}
		start := max(pu.ready, h.pop())
		if s.Batching != nil && u.Batch != nil && u.Batch.Key != "" {
			// Continuous batching: this slot grant may absorb compatible
			// pending units of other jobs.
			r.grantBatch(pu, u, start, h)
			continue
		}
		h.push(start + u.Dur)
		r.res.Busy[u.Pool-1] += u.Dur
		r.account(pu.taskIdx, u.Dur, start-pu.ready)
		r.unitDone(pu, start+u.Dur)
	}

	if r.done != n {
		// Some tasks never became ready: there is a dependency cycle.
		var stuck []string
		for i := range tasks {
			if !r.started[i] {
				stuck = append(stuck, r.name(i))
			}
		}
		return Result{}, fmt.Errorf("vtime: dependency cycle involving %v", stuck)
	}
	for m := range r.free {
		slices.Sort(r.free[m].items)
		r.res.SlotFree[m] = r.free[m].items
	}
	return r.res, nil
}

// slotsOf returns pool p's slot free times, nil when p needs no slot.
func (r *run) slotsOf(p Pool) *minHeap[time.Duration] {
	if p < 1 || int(p) > len(r.free) {
		return nil
	}
	return &r.free[p-1]
}

// release starts task i, whose dependencies have all completed by at.
func (r *run) release(i int, at time.Duration) {
	r.started[i] = true
	t := &r.tasks[i]
	switch {
	case len(t.Units) == 0:
		r.complete(i, at)
	case t.Sequential:
		r.enqueue(i, 0, at)
	default:
		for u := range t.Units {
			r.enqueue(i, u, at)
		}
	}
}

// enqueue makes unit u of task i eligible for a slot at ready.
func (r *run) enqueue(i, u int, ready time.Duration) {
	t := &r.tasks[i]
	r.pend.push(pendingUnit{i, u, ready, t.Priority, r.seq[t.Job], t.Job})
	r.seq[t.Job]++
}

// account charges one slot grant to its task and job.
func (r *run) account(i int, busy, wait time.Duration) {
	j := &r.res.Jobs[r.tasks[i].Job]
	j.Busy += busy
	j.Wait += wait
	j.Grants++
	r.res.TaskWait[i] += wait
}

// unitDone records that a unit ends at end: a sequential task's next unit
// becomes eligible then, and a task whose last unit it was completes.
func (r *run) unitDone(pu pendingUnit, end time.Duration) {
	i := pu.taskIdx
	t := &r.tasks[i]
	r.remaining[i]--
	if t.Sequential && pu.unitIdx+1 < len(t.Units) {
		r.enqueue(i, pu.unitIdx+1, end)
	}
	r.res.Finish[i] = max(r.res.Finish[i], end)
	if r.remaining[i] == 0 {
		r.complete(i, r.res.Finish[i])
	}
}

// complete marks task i finished at time at and releases its successors.
func (r *run) complete(i int, at time.Duration) {
	r.done++
	r.res.Finish[i] = at
	r.res.Makespan = max(r.res.Makespan, at)
	j := &r.res.Jobs[r.tasks[i].Job]
	j.End = max(j.End, at)
	for _, nxt := range r.succ[i] {
		r.indeg[nxt]--
		if r.indeg[nxt] == 0 {
			// Ready time is the max finish of all deps.
			var ready time.Duration
			for _, d := range r.tasks[nxt].Deps {
				ready = max(ready, r.res.Finish[d])
			}
			r.release(nxt, ready)
		}
	}
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

// payloadCharge returns the payload prefill sp adds to a batch of members.
// A member whose PayloadKey another member already brought charges only
// its excess over the largest same-key payload (zero for the identical
// payloads the key guarantees in practice); unique and keyless payloads
// charge in full.
func (r *run) payloadCharge(members []pendingUnit, sp *BatchSpec) time.Duration {
	charge := sp.PayloadPrefill
	if sp.PayloadKey == "" {
		return charge
	}
	for _, m := range members {
		if mb := r.unit(m).Batch; mb.PayloadKey == sp.PayloadKey {
			charge = min(charge, max(sp.PayloadPrefill-mb.PayloadPrefill, 0))
		}
	}
	return charge
}

// unit is the unit a pending entry stands for.
func (r *run) unit(c pendingUnit) Unit { return r.tasks[c.taskIdx].Units[c.unitIdx] }

// grantBatch handles one slot grant of a batchable unit under a
// BatchPolicy: it selects co-schedulable pending units of other jobs
// (same key and machine, ready within the hold-the-door window, taken
// in the deterministic grant order), removes them from the pending
// queue, and schedules the whole batch as a single invocation. grantAt
// is the instant the slot was granted to the leader (slot free time
// already applied). Selection is greedy with two guards: a member joins
// only if it strictly shrinks total busy time versus running solo, and
// only while the batch duration respects the fairness cap.
func (r *run) grantBatch(pu pendingUnit, u Unit, grantAt time.Duration, h *minHeap[time.Duration]) {
	p := r.s.Batching
	members := []pendingUnit{pu}
	maxBase, maxTmpl, maxDecode := u.Batch.Base, u.Batch.TemplatePrefill, u.Batch.Decode
	sumPayload := u.Batch.PayloadPrefill
	// The fairness cap never undercuts the leader's own solo duration:
	// a call too big to fit the cap alone still has to run.
	capLimit := p.FairnessCap
	if capLimit > 0 && u.Dur > capLimit {
		capLimit = u.Dur
	}

	if p.MaxBatch > 1 {
		windowEnd := grantAt + p.Window
		var cands []pendingUnit
		for _, c := range r.pend.items {
			cu := r.unit(c)
			if cu.Batch == nil || cu.Batch.Key != u.Batch.Key || cu.Pool != u.Pool {
				continue
			}
			if c.ready > windowEnd || c.job == pu.job {
				continue
			}
			cands = append(cands, c)
		}
		slices.SortFunc(cands, func(a, b pendingUnit) int {
			if unitLess(a, b) {
				return -1
			}
			return 1
		})
		for _, c := range cands {
			if len(members) >= p.MaxBatch {
				break
			}
			if slices.ContainsFunc(members, func(m pendingUnit) bool { return m.job == c.job }) {
				continue // one unit per job: batching is cross-query only
			}
			cb := r.unit(c).Batch
			nb, nt, nd := max(maxBase, cb.Base), max(maxTmpl, cb.TemplatePrefill), max(maxDecode, cb.Decode)
			np := sumPayload + r.payloadCharge(members, cb)
			newD := batchedDur(nb, nt, nd, np, len(members)+1)
			if newD-batchedDur(maxBase, maxTmpl, maxDecode, sumPayload, len(members)) >= r.unit(c).Dur {
				continue // joining would not shrink total busy time
			}
			if capLimit > 0 && newD > capLimit {
				continue
			}
			maxBase, maxTmpl, maxDecode, sumPayload = nb, nt, nd, np
			members = append(members, c)
		}
		if len(members) > 1 {
			r.pend.items = slices.DeleteFunc(r.pend.items, func(c pendingUnit) bool {
				return slices.ContainsFunc(members, func(m pendingUnit) bool {
					return m.taskIdx == c.taskIdx && m.unitIdx == c.unitIdx
				})
			})
			r.pend.init()
		}
	}

	// Hold the door: the batch starts once its latest member is ready
	// (bounded by grantAt + Window through candidate eligibility).
	bstart := grantAt
	var wsum time.Duration
	for _, m := range members {
		bstart = max(bstart, m.ready)
		wsum += r.unit(m).Dur
	}
	D := batchedDur(maxBase, maxTmpl, maxDecode, sumPayload, len(members))
	if len(members) == 1 {
		// A batch of one costs exactly the unbatched duration even if
		// the spec's parts carry rounding drift.
		D = u.Dur
	}
	end := bstart + D
	h.push(end)
	r.res.Busy[u.Pool-1] += D

	// Attribute the invocation to members by solo-duration-weighted
	// shares; the rounding residue lands on the leader so the shares sum
	// exactly to D (conservation invariant).
	grant := BatchGrant{Machine: int(u.Pool) - 1, Key: u.Batch.Key, GrantAt: grantAt, Start: bstart, Dur: D,
		Members: make([]BatchMember, len(members))}
	residue := D
	for i, m := range members {
		solo := r.unit(m).Dur
		var share time.Duration
		if wsum > 0 {
			share = time.Duration(float64(D) * float64(solo) / float64(wsum))
		}
		residue -= share
		grant.Members[i] = BatchMember{Task: m.taskIdx, Job: m.job, Ready: m.ready, Wait: bstart - m.ready, Solo: solo, Share: share}
	}
	grant.Members[0].Share += residue
	for i, m := range members {
		r.account(m.taskIdx, grant.Members[i].Share, grant.Members[i].Wait)
		r.unitDone(m, end)
	}
	r.res.Batches = append(r.res.Batches, grant)
}

// Serial returns the makespan if every unit ran back-to-back on a single
// slot: fully sequential execution, an upper bound on any schedule.
func Serial(tasks []Task) time.Duration {
	var total time.Duration
	for _, t := range tasks {
		for _, u := range t.Units {
			total += u.Dur
		}
	}
	return total
}
