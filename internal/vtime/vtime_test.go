package vtime

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func u(ms int) Unit { return Unit{Dur: time.Duration(ms) * time.Millisecond, Pool: OnMachine(0)} }

// at resolves a task's label to the index Run knows it by. The tests write
// their graphs by name; this is where names become indices.
func at(tasks []Task, label string) int {
	for i, t := range tasks {
		if t.Label == label {
			return i
		}
	}
	panic("no task labelled " + label)
}

// after makes the task labelled label wait for the tasks labelled deps.
func after(tasks []Task, label string, deps ...string) {
	t := &tasks[at(tasks, label)]
	for _, d := range deps {
		t.Deps = append(t.Deps, at(tasks, d))
	}
}

func TestSingleTask(t *testing.T) {
	s := NewSchedule(4)
	res, err := s.Run([]Task{{Label: "a", Units: []Unit{u(100)}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 100*time.Millisecond {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestParallelUnitsLimitedBySlots(t *testing.T) {
	// 8 units of 100ms on 4 slots -> 200ms.
	units := make([]Unit, 8)
	for i := range units {
		units[i] = u(100)
	}
	res, err := NewSchedule(4).Run([]Task{{Label: "a", Units: units}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 200*time.Millisecond {
		t.Errorf("makespan = %v, want 200ms", res.Makespan)
	}
}

func TestSequentialTask(t *testing.T) {
	units := make([]Unit, 4)
	for i := range units {
		units[i] = u(50)
	}
	res, err := NewSchedule(4).Run([]Task{{Label: "a", Units: units, Sequential: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 200*time.Millisecond {
		t.Errorf("sequential makespan = %v, want 200ms", res.Makespan)
	}
}

func TestDependencyChain(t *testing.T) {
	tasks := []Task{
		{Label: "a", Units: []Unit{u(100)}},
		{Label: "b", Units: []Unit{u(100)}},
		{Label: "c", Units: []Unit{u(100)}},
	}
	after(tasks, "b", "a")
	after(tasks, "c", "b")
	res, err := NewSchedule(4).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 300*time.Millisecond {
		t.Errorf("chain makespan = %v, want 300ms", res.Makespan)
	}
	if res.Finish[at(tasks, "a")] != 100*time.Millisecond || res.Finish[at(tasks, "c")] != 300*time.Millisecond {
		t.Errorf("finish times %v", res.Finish)
	}
}

// TestDiamondParallelism: two independent branches overlap; the makespan
// is the critical path, not the sum.
func TestDiamondParallelism(t *testing.T) {
	tasks := []Task{
		{Label: "src", Units: []Unit{u(50)}},
		{Label: "left", Units: []Unit{u(200)}},
		{Label: "right", Units: []Unit{u(150)}},
		{Label: "sink", Units: []Unit{u(50)}},
	}
	after(tasks, "left", "src")
	after(tasks, "right", "src")
	after(tasks, "sink", "left", "right")
	res, err := NewSchedule(4).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	want := 300 * time.Millisecond // 50 + max(200,150) + 50
	if res.Makespan != want {
		t.Errorf("diamond makespan = %v, want %v", res.Makespan, want)
	}
	if ser := Serial(tasks); ser != 450*time.Millisecond {
		t.Errorf("serial = %v, want 450ms", ser)
	}
}

func TestSlotContentionAcrossTasks(t *testing.T) {
	// Two independent tasks of 4x100ms units on 2 slots: 8 units total,
	// 2 at a time -> 400ms.
	mk := func(id string) Task {
		return Task{Label: id, Units: []Unit{u(100), u(100), u(100), u(100)}}
	}
	res, err := NewSchedule(2).Run([]Task{mk("a"), mk("b")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 400*time.Millisecond {
		t.Errorf("contended makespan = %v, want 400ms", res.Makespan)
	}
}

func TestUnlimitedResource(t *testing.T) {
	units := make([]Unit, 16)
	for i := range units {
		units[i] = Unit{Dur: 100 * time.Millisecond} // no resource: unlimited
	}
	res, err := NewSchedule(1).Run([]Task{{Label: "cpu", Units: units}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 100*time.Millisecond {
		t.Errorf("unlimited-resource makespan = %v, want 100ms", res.Makespan)
	}
}

func TestZeroUnitTasks(t *testing.T) {
	tasks := []Task{
		{Label: "a"},
		{Label: "b", Units: []Unit{u(100)}},
	}
	after(tasks, "b", "a")
	res, err := NewSchedule(1).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 100*time.Millisecond {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestErrors(t *testing.T) {
	for _, ghost := range []int{-1, 1} {
		_, err := NewSchedule(1).Run([]Task{{Label: "a", Deps: []int{ghost}}})
		if err == nil || !strings.Contains(err.Error(), "unknown task") {
			t.Errorf("dependency on task %d of one: %v", ghost, err)
		}
	}
	if _, err := NewSchedule(1).Run([]Task{{Label: "a", Job: -1}}); err == nil {
		t.Error("negative job accepted")
	}
	cyc := []Task{
		{Label: "a", Units: []Unit{u(10)}},
		{Label: "b", Units: []Unit{u(10)}},
	}
	after(cyc, "a", "b")
	after(cyc, "b", "a")
	if _, err := NewSchedule(1).Run(cyc); err == nil {
		t.Error("cycle accepted")
	}
}

// TestZeroUnitCycle: a cycle among tasks that have no units is still a
// cycle. Counting scheduled units missed it — there were none to miss — and
// returned a Result without those tasks.
func TestZeroUnitCycle(t *testing.T) {
	tasks := []Task{
		{Label: "root", Units: []Unit{u(10)}},
		{Label: "a"},
		{Label: "b"},
	}
	after(tasks, "a", "b")
	after(tasks, "b", "a", "root")
	_, err := NewSchedule(1).Run(tasks)
	if err == nil || !strings.Contains(err.Error(), "cycle involving [a b]") {
		t.Errorf("zero-unit cycle: err = %v", err)
	}
}

func TestBusyAccounting(t *testing.T) {
	res, err := NewSchedule(2).Run([]Task{{Label: "a", Units: []Unit{u(100), u(50)}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Busy[0] != 150*time.Millisecond {
		t.Errorf("busy = %v, want 150ms", res.Busy[0])
	}
}

func TestDeterminism(t *testing.T) {
	tasks := []Task{
		{Label: "a", Units: []Unit{u(30), u(70), u(20)}},
		{Label: "b", Units: []Unit{u(40), u(10)}},
		{Label: "c", Units: []Unit{u(25)}},
	}
	after(tasks, "c", "a", "b")
	r1, err1 := NewSchedule(2).Run(tasks)
	r2, err2 := NewSchedule(2).Run(tasks)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Makespan != r2.Makespan {
		t.Errorf("non-deterministic: %v vs %v", r1.Makespan, r2.Makespan)
	}
}

// TestSchedulingInvariants property-tests the scheduler: for random task
// graphs, the makespan is bounded below by both the critical path and
// busy-time/slots, and above by the total serial time.
func TestSchedulingInvariants(t *testing.T) {
	f := func(seed uint8, nTasks uint8, slots uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nTasks)%8 + 2
		cap := int(slots)%4 + 1
		tasks := make([]Task, n)
		var totalBusy time.Duration
		for i := range tasks {
			nu := rng.Intn(4) + 1
			units := make([]Unit, nu)
			for j := range units {
				d := time.Duration(rng.Intn(90)+10) * time.Millisecond
				units[j] = Unit{Dur: d, Pool: OnMachine(0)}
				totalBusy += d
			}
			tasks[i] = Task{Units: units, Sequential: rng.Intn(2) == 0}
			// Random backward dependencies keep the graph acyclic.
			for j := 0; j < i; j++ {
				if rng.Intn(4) == 0 {
					tasks[i].Deps = append(tasks[i].Deps, j)
				}
			}
		}
		res, err := NewSchedule(cap).Run(tasks)
		if err != nil {
			return false
		}
		serial := Serial(tasks)
		lower := totalBusy / time.Duration(cap)
		if res.Makespan > serial {
			t.Logf("makespan %v above serial %v", res.Makespan, serial)
			return false
		}
		if res.Makespan < lower {
			t.Logf("makespan %v below busy/slots %v", res.Makespan, lower)
			return false
		}
		if res.Busy[0] != totalBusy {
			return false
		}
		// Every task finishes after all its dependencies.
		for i, task := range tasks {
			for _, d := range task.Deps {
				if res.Finish[i] < res.Finish[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSerialNotBelowDAG: operator-serial execution can never beat the DAG
// schedule.
func TestSerialNotBelowDAG(t *testing.T) {
	tasks := []Task{
		{Label: "a", Units: []Unit{u(100), u(100)}},
		{Label: "b", Units: []Unit{u(150)}},
		{Label: "c", Units: []Unit{u(50)}},
	}
	after(tasks, "c", "a", "b")
	res, err := NewSchedule(4).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if ser := Serial(tasks); ser < res.Makespan {
		t.Errorf("serial %v below DAG %v", ser, res.Makespan)
	}
}
