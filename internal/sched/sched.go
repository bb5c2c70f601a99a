// Package sched is the process-global slot-pool scheduler: it multiplexes
// every concurrent query in the process onto the one simulated machine the
// paper evaluates on (4 local LLM slots, §VI-A) — or, via NewCluster, onto
// a simulated M-machine cluster whose machines share one virtual clock.
//
// Before this package each query scheduled its recorded work on a private
// vtime.Schedule, so two concurrent /v1/query requests both pretended they
// owned all four slots and latency under load was fiction. The pool owns a
// shared virtual clock and the slots' free times; queries are admitted as
// tickets, submit their executed task graphs, and receive slot grants
// against the shared machine state. Queries that overlap in wall time
// share a virtual admission epoch and contend for slots; a query arriving
// on an idle pool sees all slots free and schedules exactly as the old
// private path did (bit-for-bit).
//
// Fairness and determinism: jobs finalize strictly in admission order.
// Each finalization replays every job already committed to the epoch plus
// all co-pending submitted jobs jointly through vtime.Run's fair ready
// queue — per-query FIFO, round-robin across queries on ready-time ties,
// higher ticket priority first — so an earlier query's grants and a later
// query's grants come from one coherent schedule. Given the same
// admission+submission sequence and task sets, every replay is bit-for-bit
// identical.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"unify/internal/check"
	"unify/internal/vtime"
)

// Ticket is one admitted query's claim on the pool. Tickets are created by
// Admit, carry the query's virtual admission time, and must be Released
// exactly once (whether or not the query ran).
type Ticket struct {
	// Start is the query's virtual admission time on the shared clock.
	Start time.Duration
	// Priority breaks slot-grant ties in the fair queue (higher first).
	Priority int

	seq      int64
	epochJob int           // fair-queue job index within the epoch
	machine  int           // home machine (epoch-relative round robin)
	turn     chan struct{} // closed when every earlier ticket has resolved
	ran      bool          // guarded by the pool mutex
	released bool          // guarded by the pool mutex
}

// Machine returns the query's home machine in the cluster: unscattered
// work is scheduled on the home machine's slots. Always 0 on a
// single-machine pool.
func (tk *Ticket) Machine() int {
	if tk == nil {
		return 0
	}
	return tk.machine
}

// Seq returns the ticket's process-wide admission sequence number. The
// trace store orders and keys retained query history by it: admission
// order is deterministic where wall-clock completion order is not.
func (tk *Ticket) Seq() int64 {
	if tk == nil {
		return -1
	}
	return tk.seq
}

// JobResult reports one query's outcome on the shared pool.
type JobResult struct {
	// Start is the virtual admission time (same as the ticket's).
	Start time.Duration
	// Makespan is the query's completion time minus Start: it includes
	// every slot-grant delay caused by contending queries.
	Makespan time.Duration
	// Solo is the makespan the same task graph achieves on an idle pool —
	// the no-contention baseline (Makespan == Solo for a lone query).
	Solo time.Duration
	// Busy is the query's own total slot busy time.
	Busy time.Duration
	// GrantWait is the total virtual delay between units becoming ready
	// and receiving a slot grant.
	GrantWait time.Duration
	// Grants counts slot grants the query received.
	Grants int
	// Finish holds each task's completion time relative to Start, and
	// TaskWait its share of GrantWait (attributing slot contention to
	// individual operators), both by index into the submitted tasks.
	Finish   []time.Duration
	TaskWait []time.Duration
	// Contended reports that the query was scheduled against a non-idle
	// machine (busy slots at admission or co-pending queries).
	Contended bool
	// BatchedUnits counts this query's calls that shared a multi-member
	// batched invocation with another query (0 without batching).
	BatchedUnits int
	// TaskBatched breaks BatchedUnits down per task (nil when zero).
	TaskBatched []int
}

// MachineStat is one machine's share of a cluster snapshot.
type MachineStat struct {
	Machine int `json:"machine"`
	// Active counts admitted queries homed on this machine.
	Active int `json:"active"`
	// Utilization is the machine's slot utilization over the current
	// epoch (or the last completed epoch when the pool is idle).
	Utilization float64 `json:"utilization"`
	// CumUtilization is the machine's lifetime slot utilization.
	CumUtilization float64 `json:"cum_utilization"`
	// BusyTotal accumulates the machine's slot busy time for the pool's
	// lifetime.
	BusyTotal time.Duration `json:"-"`
}

// Stats is a point-in-time snapshot of the pool.
type Stats struct {
	// Slots is the slot count PER MACHINE (the cluster-wide count is
	// Slots × Machines).
	Slots int `json:"slots"`
	// Machines is the cluster width (1 for a single-machine pool).
	Machines int `json:"machines"`
	// PerMachine breaks the snapshot down by machine, in machine order.
	PerMachine []MachineStat `json:"per_machine"`

	Active     int           `json:"active"`
	Pending    int           `json:"pending"`
	PeakActive int           `json:"peak_active"`
	Admitted   int64         `json:"admitted"`
	Completed  int64         `json:"completed"`
	VirtualNow time.Duration `json:"-"`
	// BusyTotal and GrantWaitTotal accumulate across the pool's lifetime.
	BusyTotal      time.Duration `json:"-"`
	GrantWaitTotal time.Duration `json:"-"`
	Grants         int64         `json:"grants"`
	// Utilization is the current epoch's aggregate slot utilization
	// (busy / (span × slots), structurally ≤ 1), or the last completed
	// epoch's when the pool is idle.
	Utilization float64 `json:"utilization"`
	// CumUtilization aggregates over the pool's whole lifetime:
	// BusyTotal / (virtual span × slots). Epochs are contiguous on the
	// shared clock (each opens when the busiest slot of the previous one
	// drains), so this too is structurally ≤ 1.
	CumUtilization float64 `json:"cum_utilization"`
	// SpanVTime is the lifetime virtual span the pool has scheduled over
	// (first admission to the busiest slot's free time).
	SpanVTime time.Duration `json:"-"`
	// EpochQueries counts queries admitted to the current epoch.
	EpochQueries int `json:"epoch_queries"`

	// Continuous-batching counters (all zero — and omitted from JSON —
	// unless the pool has a BatchPolicy). BatchGrants counts slot grants
	// of batchable units (including single-member grants); BatchedUnits
	// counts the calls those grants carried; BatchOccupancy is their
	// ratio (mean calls per invocation); BatchSavedVTime is the slot
	// busy time avoided versus running every member solo; MaxBatchSize
	// is the largest invocation formed.
	BatchGrants     int64         `json:"batch_grants,omitempty"`
	BatchedUnits    int64         `json:"batched_units,omitempty"`
	BatchOccupancy  float64       `json:"batch_occupancy,omitempty"`
	BatchSavedVTime time.Duration `json:"-"`
	MaxBatchSize    int           `json:"max_batch_size,omitempty"`
}

// Pool multiplexes concurrent queries onto one slot-limited machine.
type Pool struct {
	// StrictChecks validates every merged schedule this pool finalizes
	// (vtime conservation, slot bounds) and the epoch utilization against
	// the internal/check invariants. Set at construction time alongside
	// Config.StrictChecks; on in all tests, off by default in prod.
	StrictChecks bool

	// Batching, when non-nil, enables cross-query continuous batching in
	// every merged schedule this pool finalizes (see vtime.BatchPolicy).
	// Set at construction time alongside Config.Batching; never mutated
	// while queries are in flight.
	Batching *vtime.BatchPolicy

	mu       sync.Mutex
	machines int
	slots    int               // slots per machine
	free     [][]time.Duration // per machine, per slot: virtual free times (absolute)
	vnow     time.Duration     // current epoch's admission time

	nextSeq      int64
	resolvedUpTo int64              // every seq below this has resolved
	resolved     map[int64]bool     // out-of-order resolutions
	tickets      map[int64]*Ticket  // admitted, unresolved
	pending      map[int64]*pendJob // submitted, awaiting finalization

	active     int
	peakActive int

	// Epoch accounting: an epoch spans from the first admission on an
	// idle pool until the pool drains. Since the clock jumps past every
	// busy slot when an epoch opens, epochs always start on an idle
	// machine; committed holds the epoch's already-finalized jobs, merged
	// into one task slice, so later finalizations replay them for a
	// coherent joint schedule.
	//
	// Busy totals use OVERWRITE semantics: each finalization's merged
	// replay covers every job of the epoch seen so far (committed,
	// finalizing, and co-pending), so the epoch's busy is taken wholesale
	// from the latest replay rather than accumulated per job. With
	// batching, a job's attributed busy depends on which co-pending jobs
	// share its invocations — summing per-finalization snapshots from
	// different replays could exceed the slots' physical capacity, while
	// the latest replay's total is structurally bounded by it.
	epochStart   time.Duration
	epochEnd     time.Duration
	epochBusy    time.Duration
	epochQueries int
	committed    []vtime.Task
	lastUtil     float64

	// Per-machine accounting (index = machine).
	epochMachBusy []time.Duration
	activeByMach  []int
	lastMachUtil  []float64

	// Current-epoch batching counters, overwritten like epochBusy.
	epochBatchGrants int64
	epochBatchUnits  int64
	epochBatchSaved  time.Duration
	maxBatchSize     int // lifetime

	// Closed-epoch archives; lifetime totals are archive + current epoch.
	busyArchive        time.Duration
	machBusyArchive    []time.Duration
	batchGrantsArchive int64
	batchUnitsArchive  int64
	batchSavedArchive  time.Duration

	origin    time.Duration // first epoch's start time
	originSet bool

	admitted, completed int64
	waitTotal           time.Duration
	grantsTotal         int64
}

type pendJob struct {
	tk    *Ticket
	tasks []vtime.Task
}

// NewPool returns a pool modeling one machine with the given number of
// LLM slots.
func NewPool(slots int) *Pool { return NewCluster(1, slots) }

// NewCluster returns a pool modeling an M-machine cluster: M identical
// slot pools sharing one virtual clock and one admission order. Admitted
// tickets are routed round-robin to a home machine; scattered operators
// may place per-shard work on other machines' slots.
func NewCluster(machines, slots int) *Pool {
	if machines < 1 {
		machines = 1
	}
	if slots < 1 {
		slots = 1
	}
	free := make([][]time.Duration, machines)
	for m := range free {
		free[m] = make([]time.Duration, slots)
	}
	return &Pool{
		machines:        machines,
		slots:           slots,
		free:            free,
		resolved:        map[int64]bool{},
		tickets:         map[int64]*Ticket{},
		pending:         map[int64]*pendJob{},
		epochMachBusy:   make([]time.Duration, machines),
		machBusyArchive: make([]time.Duration, machines),
		activeByMach:    make([]int, machines),
		lastMachUtil:    make([]float64, machines),
	}
}

// Slots reports the pool's slot count per machine.
func (p *Pool) Slots() int { return p.slots }

// Machines reports the cluster width (1 for a plain pool).
func (p *Pool) Machines() int { return p.machines }

// Admit registers a query with the pool and returns its ticket. If the
// pool is idle the shared clock advances to the time every slot is free,
// so a lone query schedules exactly as on a private machine; otherwise the
// query joins the current epoch and will contend for slots. The caller
// must Release the ticket exactly once.
func (p *Pool) Admit(priority int) *Ticket {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active == 0 {
		// Fresh epoch: every machine is idle by max(free), and the clock
		// never runs backwards.
		start := p.vnow
		for _, mf := range p.free {
			for _, f := range mf {
				if f > start {
					start = f
				}
			}
		}
		p.vnow = start
		if !p.originSet {
			p.origin = start
			p.originSet = true
		}
		// Archive the closing epoch's totals before resetting: lifetime
		// figures are archive + current epoch under overwrite accounting.
		p.busyArchive += p.epochBusy
		for m := range p.epochMachBusy {
			p.machBusyArchive[m] += p.epochMachBusy[m]
		}
		p.batchGrantsArchive += p.epochBatchGrants
		p.batchUnitsArchive += p.epochBatchUnits
		p.batchSavedArchive += p.epochBatchSaved
		p.epochStart = start
		p.epochEnd = start
		p.epochBusy = 0
		p.epochQueries = 0
		p.committed = nil
		for m := range p.epochMachBusy {
			p.epochMachBusy[m] = 0
		}
		p.epochBatchGrants = 0
		p.epochBatchUnits = 0
		p.epochBatchSaved = 0
	}
	tk := &Ticket{
		Start:    p.vnow,
		Priority: priority,
		seq:      p.nextSeq,
		epochJob: p.epochQueries,
		machine:  p.epochQueries % p.machines,
		turn:     make(chan struct{}),
	}
	p.nextSeq++
	p.tickets[tk.seq] = tk
	p.active++
	p.activeByMach[tk.machine]++
	p.epochQueries++
	p.admitted++
	if p.active > p.peakActive {
		p.peakActive = p.active
	}
	if tk.seq == p.resolvedUpTo {
		close(tk.turn) // nothing ahead of us
	}
	return tk
}

// Release returns a ticket to the pool. Tickets that never ran (error
// paths) resolve here so queries behind them are not blocked.
func (p *Pool) Release(tk *Ticket) {
	if tk == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if tk.released {
		return
	}
	tk.released = true
	if !tk.ran {
		delete(p.pending, tk.seq)
		p.resolve(tk.seq)
	}
	p.active--
	p.activeByMach[tk.machine]--
	if p.active == 0 {
		p.lastUtil = p.epochUtilLocked()
		for m := range p.lastMachUtil {
			p.lastMachUtil[m] = p.machineUtilLocked(m)
		}
	}
}

// ErrTicketUsed reports a Run against a ticket that already ran or was
// released; the caller should Admit a fresh ticket.
var ErrTicketUsed = errors.New("sched: ticket already used")

// Run submits a query's executed task graph to the pool and blocks until
// its slot grants are final. Jobs finalize in admission order: queries
// that submitted while waiting their turn are scheduled jointly (the fair
// queue), so an earlier query cannot starve a later one of slots. The
// returned makespan is measured from the ticket's admission time.
// Dependencies are indices into tasks.
func (p *Pool) Run(ctx context.Context, tk *Ticket, tasks []vtime.Task) (JobResult, error) {
	if tk == nil {
		return JobResult{}, fmt.Errorf("sched: nil ticket")
	}
	// Merged into a joint schedule, an index past the job's own tasks
	// would name another query's task.
	for i, t := range tasks {
		for _, d := range t.Deps {
			if d < 0 || d >= len(tasks) {
				return JobResult{}, fmt.Errorf("sched: task %d depends on unknown task %d", i, d)
			}
		}
	}
	p.mu.Lock()
	if tk.released || tk.ran {
		p.mu.Unlock()
		return JobResult{}, ErrTicketUsed
	}
	p.pending[tk.seq] = &pendJob{tk: tk, tasks: tasks}
	p.mu.Unlock()

	select {
	case <-tk.turn:
	case <-ctx.Done():
		p.mu.Lock()
		delete(p.pending, tk.seq)
		p.mu.Unlock()
		return JobResult{}, ctx.Err()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	jr, err := p.finalizeLocked(tk)
	tk.ran = true
	p.resolve(tk.seq)
	if err != nil {
		return JobResult{}, err
	}
	return jr, nil
}

// resolve marks a ticket resolved and advances the admission-order
// barrier, waking the next ticket in line.
func (p *Pool) resolve(seq int64) {
	delete(p.tickets, seq)
	p.resolved[seq] = true
	for p.resolved[p.resolvedUpTo] {
		delete(p.resolved, p.resolvedUpTo)
		p.resolvedUpTo++
	}
	if next, ok := p.tickets[p.resolvedUpTo]; ok {
		select {
		case <-next.turn:
		default:
			close(next.turn)
		}
	}
}

// finalizeLocked computes the finalizing ticket's grants. The epoch's
// committed jobs, the finalizing job, and all co-pending submitted jobs
// are scheduled jointly from the epoch start by the fair queue; the
// finalizing job's grants come out of that one coherent schedule, and the
// job is then committed so later finalizations replay it identically.
func (p *Pool) finalizeLocked(tk *Ticket) (JobResult, error) {
	job := p.pending[tk.seq]
	delete(p.pending, tk.seq)
	t0 := tk.Start
	ej := tk.epochJob

	// Co-pending jobs (admitted later, already submitted) join the merged
	// schedule so slot grants interleave fairly instead of first-come-
	// first-served. Order is deterministic: admission sequence.
	others := make([]*pendJob, 0, len(p.pending))
	for _, pj := range p.pending {
		others = append(others, pj)
	}
	sort.Slice(others, func(i, j int) bool { return others[i].tk.seq < others[j].tk.seq })
	contended := len(others) > 0 || len(p.committed) > 0

	// The committed jobs lead the merged schedule and the finalizing job
	// follows them, so on success that prefix is the next finalization's
	// committed slice as it stands: a committed job is rebased once.
	base := len(p.committed)
	merged := appendJob(p.committed, job.tasks, ej, tk.Priority)
	commit := len(merged)
	for _, pj := range others {
		merged = appendJob(merged, pj.tasks, pj.tk.epochJob, pj.tk.Priority)
	}
	cluster := vtime.NewCluster(p.machines, p.slots)
	cluster.Batching = p.Batching
	mres, err := cluster.Run(merged)
	if err != nil {
		return JobResult{}, err
	}
	if p.StrictChecks {
		if err := check.Fail("sched: merged schedule", check.VTimeCluster(mres, p.machines, p.slots), nil); err != nil {
			return JobResult{}, err
		}
		if p.Batching != nil {
			if err := check.Fail("sched: batch formation", check.BatchFairness(mres, p.Batching), nil); err != nil {
				return JobResult{}, err
			}
		}
	}

	var own vtime.JobStats // zero for a job that submitted no tasks
	if ej < len(mres.Jobs) {
		own = mres.Jobs[ej]
	}
	jr := JobResult{
		Start:     t0,
		Makespan:  own.End,
		Busy:      own.Busy,
		GrantWait: own.Wait,
		Grants:    own.Grants,
		Finish:    mres.Finish[base:commit:commit],
		TaskWait:  mres.TaskWait[base:commit:commit],
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
			if jr.TaskBatched == nil {
				jr.TaskBatched = make([]int, len(job.tasks))
			}
			jr.TaskBatched[m.Task-base]++
		}
	}
	p.committed = merged[:commit]

	// Advance each machine's state to the merged schedule's slot free
	// times; the next epoch opens no earlier than the busiest slot drains.
	for m := range p.free {
		for i := range p.free[m] {
			p.free[m][i] = t0 + mres.SlotFree[m][i]
		}
	}

	// Overwrite the epoch's busy and batching totals from this replay: it
	// covers every job of the epoch seen so far, and under batching a
	// job's attributed busy is only meaningful within one replay's batch
	// compositions. For a lone job per epoch this equals the old per-job
	// accumulation exactly.
	p.epochBusy = 0
	for m, b := range mres.Busy {
		p.epochBusy += b
		p.epochMachBusy[m] = b
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

	// Solo baseline: the same graph on an idle cluster. For an
	// uncontended query that is, bit-for-bit, the schedule just computed.
	if contended {
		sres, err := vtime.NewCluster(p.machines, p.slots).Run(job.tasks)
		if err != nil {
			return JobResult{}, err
		}
		jr.Solo = sres.Makespan
	} else {
		jr.Solo = jr.Makespan
	}

	end := t0 + own.End
	if end > p.epochEnd {
		p.epochEnd = end
	}
	p.waitTotal += jr.GrantWait
	p.grantsTotal += int64(jr.Grants)
	p.completed++
	if p.StrictChecks {
		if err := check.Fail("sched: epoch accounting", check.PoolUtilization(p.epochUtilLocked()), nil); err != nil {
			return JobResult{}, err
		}
		for m := 0; m < p.machines; m++ {
			if err := check.Fail(fmt.Sprintf("sched: machine %d epoch accounting", m), check.PoolUtilization(p.machineUtilLocked(m)), nil); err != nil {
				return JobResult{}, err
			}
		}
	}
	return jr, nil
}

// epochUtilLocked computes the current epoch's aggregate slot
// utilization. The span is bounded below by the slots' own free times, so
// the ratio is structurally ≤ 1.
func (p *Pool) epochUtilLocked() float64 {
	span := p.epochSpanLocked()
	if span <= 0 || p.epochBusy <= 0 {
		return 0
	}
	return float64(p.epochBusy) / (float64(span) * float64(p.slots) * float64(p.machines))
}

// machineUtilLocked computes one machine's slot utilization over the
// current epoch. The span is the whole cluster's (epochs are shared), so
// per-machine utilizations average to the aggregate.
func (p *Pool) machineUtilLocked(m int) float64 {
	span := p.epochSpanLocked()
	if span <= 0 || p.epochMachBusy[m] <= 0 {
		return 0
	}
	return float64(p.epochMachBusy[m]) / (float64(span) * float64(p.slots))
}

// epochSpanLocked is the current epoch's span: admission to the last
// completion or busiest slot, whichever is later.
func (p *Pool) epochSpanLocked() time.Duration {
	end := p.epochEnd
	for _, mf := range p.free {
		for _, f := range mf {
			if f > end {
				end = f
			}
		}
	}
	return end - p.epochStart
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	util := p.lastUtil
	if p.active > 0 {
		util = p.epochUtilLocked()
	}
	maxFree := p.origin
	for _, mf := range p.free {
		for _, f := range mf {
			if f > maxFree {
				maxFree = f
			}
		}
	}
	span := maxFree - p.origin
	busyTotal := p.busyArchive + p.epochBusy
	cum := 0.0
	if span > 0 && busyTotal > 0 {
		cum = float64(busyTotal) / (float64(span) * float64(p.slots) * float64(p.machines))
	}
	perMach := make([]MachineStat, p.machines)
	for m := range perMach {
		mutil := p.lastMachUtil[m]
		if p.active > 0 {
			mutil = p.machineUtilLocked(m)
		}
		machBusy := p.machBusyArchive[m] + p.epochMachBusy[m]
		mcum := 0.0
		if span > 0 && machBusy > 0 {
			mcum = float64(machBusy) / (float64(span) * float64(p.slots))
		}
		perMach[m] = MachineStat{
			Machine:        m,
			Active:         p.activeByMach[m],
			Utilization:    mutil,
			CumUtilization: mcum,
			BusyTotal:      machBusy,
		}
	}
	batchGrants := p.batchGrantsArchive + p.epochBatchGrants
	batchUnits := p.batchUnitsArchive + p.epochBatchUnits
	occupancy := 0.0
	if batchGrants > 0 {
		occupancy = float64(batchUnits) / float64(batchGrants)
	}
	return Stats{
		Slots:           p.slots,
		Machines:        p.machines,
		PerMachine:      perMach,
		Active:          p.active,
		Pending:         len(p.pending),
		PeakActive:      p.peakActive,
		Admitted:        p.admitted,
		Completed:       p.completed,
		VirtualNow:      p.vnow,
		BusyTotal:       busyTotal,
		GrantWaitTotal:  p.waitTotal,
		Grants:          p.grantsTotal,
		Utilization:     util,
		CumUtilization:  cum,
		SpanVTime:       span,
		EpochQueries:    p.epochQueries,
		BatchGrants:     batchGrants,
		BatchedUnits:    batchUnits,
		BatchOccupancy:  occupancy,
		BatchSavedVTime: p.batchSavedArchive + p.epochBatchSaved,
		MaxBatchSize:    p.maxBatchSize,
	}
}

// appendJob appends a job's tasks to a merged schedule: dependencies,
// which index the job's own tasks, move by the job's offset in merged.
func appendJob(merged, tasks []vtime.Task, job, priority int) []vtime.Task {
	base, n := len(merged), 0
	for _, t := range tasks {
		n += len(t.Deps)
	}
	deps := make([]int, 0, n)
	for _, t := range tasks {
		own := len(deps)
		for _, d := range t.Deps {
			deps = append(deps, base+d)
		}
		t.Deps, t.Job, t.Priority = deps[own:len(deps):len(deps)], job, priority
		merged = append(merged, t)
	}
	return merged
}

type ctxKey int

const ticketKey ctxKey = iota

// WithTicket installs an admitted ticket into the context so the executor
// submits to the pool that admitted the query.
func WithTicket(ctx context.Context, tk *Ticket) context.Context {
	if tk == nil {
		return ctx
	}
	return context.WithValue(ctx, ticketKey, tk)
}

// TicketFrom extracts the query's ticket (nil when absent).
func TicketFrom(ctx context.Context) *Ticket {
	tk, _ := ctx.Value(ticketKey).(*Ticket)
	return tk
}
