package unify

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"unify/internal/vtime"
	"unify/internal/workload"
)

// seedBatchTasks is the fixed multi-query scenario behind the batch
// replay golden: two heavy scans on different compatibility keys plus
// three light probes, co-pending on a 2-slot machine. It exercises
// cross-job coalescing, key separation, hold-the-door joins, sequential
// lockstep re-batching, and payload singleflight: the filter queries
// scan the same corpus chunks (chunk-indexed payload keys), so lockstep
// invocations prefill each chunk once, while the probe_f2 chain's
// second unit carries a private payload and pays its own way.
func seedBatchTasks() []vtime.Task {
	mk := func(key, payloadKey string, payload, decode time.Duration) vtime.Unit {
		base := 80 * time.Millisecond
		tmpl := 30 * time.Millisecond
		return vtime.Unit{
			Dur:  base + tmpl + payload + decode,
			Pool: vtime.OnMachine(0),
			Batch: &vtime.BatchSpec{
				Key: key, Base: base, Decode: decode,
				TemplatePrefill: tmpl, PayloadPrefill: payload,
				PayloadKey: payloadKey,
			},
		}
	}
	chain := func(id string, job, n int, key, pkPrefix string, payload, decode time.Duration) vtime.Task {
		units := make([]vtime.Unit, n)
		for i := range units {
			pk := ""
			if pkPrefix != "" {
				pk = fmt.Sprintf("%s%d", pkPrefix, i)
			}
			units[i] = mk(key, pk, payload, decode)
		}
		return vtime.Task{Label: id, Job: job, Units: units, Sequential: true}
	}
	fkey := "filter|sim-llama-8b|condition,docs"
	ckey := "classify|sim-llama-8b|classes,docs"
	tasks := []vtime.Task{
		chain("scan_f", 0, 4, fkey, "fchunk", 120*time.Millisecond, 200*time.Millisecond),
		chain("scan_c", 1, 3, ckey, "cchunk", 90*time.Millisecond, 260*time.Millisecond),
		chain("probe_f1", 2, 1, fkey, "fchunk", 120*time.Millisecond, 180*time.Millisecond),
		chain("probe_f2", 3, 2, fkey, "fchunk", 120*time.Millisecond, 220*time.Millisecond),
		chain("probe_c", 4, 1, ckey, "cchunk", 90*time.Millisecond, 240*time.Millisecond),
	}
	// probe_f2's second chunk diverges from the shared scan (a filtered
	// subset): unique payload, charged in full even inside a batch.
	tasks[3].Units[1].Batch.PayloadKey = "subset"
	tasks[3].Units[1].Batch.PayloadPrefill = 80 * time.Millisecond
	tasks[3].Units[1].Dur = (80 + 30 + 80 + 220) * time.Millisecond
	return tasks
}

// formatBatchReplay renders a batched schedule result in the golden
// format: one G line per grant (in grant order), one M line per member
// (leader first), one J line per job, all virtual times in nanoseconds so
// the file is bit-exact. The golden predates numbered tasks and machines:
// a member is rendered by its task's label and the one machine as "llm".
func formatBatchReplay(tasks []vtime.Task, res vtime.Result) string {
	var b strings.Builder
	for i, g := range res.Batches {
		fmt.Fprintf(&b, "G\t%d\tllm\t%s\t%d\t%d\t%d\n", i, g.Key, g.GrantAt, g.Start, g.Dur)
		for _, m := range g.Members {
			fmt.Fprintf(&b, "M\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, tasks[m.Task].Label, m.Job, m.Ready, m.Wait, m.Solo, m.Share)
		}
	}
	for j, job := range res.Jobs {
		fmt.Fprintf(&b, "J\t%d\t%d\t%d\t%d\t%d\n", j, job.End, job.Busy, job.Wait, job.Grants)
	}
	return b.String()
}

// TestBatchReplayGolden pins batch formation to a checked-in golden:
// composition, grant order, starts, durations, waits, and shares of
// every invocation in the seed scenario must stay bit-for-bit stable,
// and the same schedule replayed with batching disabled must not record
// any grants. Regenerate with UPDATE_GOLDENS=1 go test -run BatchReplay.
func TestBatchReplayGolden(t *testing.T) {
	s := vtime.NewSchedule(2)
	s.Batching = &vtime.BatchPolicy{
		Window:      DefaultBatchWindow,
		FairnessCap: DefaultBatchFairnessCap,
		MaxBatch:    DefaultMaxBatch,
	}
	tasks := seedBatchTasks()
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	got := formatBatchReplay(tasks, res)

	multi := 0
	for _, g := range res.Batches {
		if len(g.Members) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("seed scenario formed no multi-member batches")
	}

	const golden = "testdata/seed_batch_grants.tsv"
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("batch replay diverged from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Replay determinism, independent of the golden file.
	s2 := vtime.NewSchedule(2)
	s2.Batching = &vtime.BatchPolicy{
		Window:      DefaultBatchWindow,
		FairnessCap: DefaultBatchFairnessCap,
		MaxBatch:    DefaultMaxBatch,
	}
	res2, err := s2.Run(seedBatchTasks())
	if err != nil {
		t.Fatal(err)
	}
	if again := formatBatchReplay(tasks, res2); again != got {
		t.Errorf("batched schedule not replay-stable:\n%s\nvs\n%s", got, again)
	}

	// Batching off: no grants recorded, schedule untouched by the feature.
	off := vtime.NewSchedule(2)
	ores, err := off.Run(seedBatchTasks())
	if err != nil {
		t.Fatal(err)
	}
	if len(ores.Batches) != 0 {
		t.Errorf("batching-off run recorded %d grants", len(ores.Batches))
	}
	if ores.Makespan < res.Makespan {
		t.Errorf("batching slowed the schedule down: on=%v off=%v", res.Makespan, ores.Makespan)
	}
}

// TestBatchingOnSequentialMatchesSeedAnswers asserts the batching-off
// default's strongest compatibility bar from the other side: with
// batching ON, a sequential run of the seed workload — where queries
// never co-pend, so cross-query batching finds no partners — produces
// answer lines byte-identical to the pre-batching seed golden.
func TestBatchingOnSequentialMatchesSeedAnswers(t *testing.T) {
	sys, err := New(
		WithDataset("sports"),
		WithSize(300),
		WithTrainSCE(),
		WithStrictChecks(),
		WithMachines(1),
		WithBatching(),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(runClusterWorkload(t, sys), "\n") + "\n"
	want, err := os.ReadFile("testdata/seed_m1_answers.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("batching-on sequential answers diverged from seed golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	ps := sys.Pool.Stats()
	if ps.BatchGrants == 0 {
		t.Fatal("batchable calls never passed through the batch grant path")
	}
	if ps.BatchOccupancy != 1.0 {
		t.Errorf("sequential occupancy %v, want exactly 1.0 (no co-pending partners)", ps.BatchOccupancy)
	}
}

// TestBatchingAnswersIdenticalUnderContention drives the same workload
// slice through two concurrent serving runs — batching on and off — and
// requires byte-identical answer text: coalescing may only move virtual
// time, never results.
func TestBatchingAnswersIdenticalUnderContention(t *testing.T) {
	run := func(batching bool) []string {
		opts := []Option{WithDataset("sports"), WithSize(200), WithStrictChecks()}
		if batching {
			opts = append(opts, WithBatching())
		}
		sys, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		queries := workload.Generate(sys.Dataset, 1, 42)[:4]
		type slot struct {
			text string
			err  error
		}
		out := make([]slot, len(queries))
		done := make(chan int, len(queries))
		for i, q := range queries {
			go func(i int, text string) {
				ans, err := sys.Query(context.Background(), text)
				if err != nil {
					out[i] = slot{err: err}
				} else {
					out[i] = slot{text: ans.Text}
				}
				done <- i
			}(i, q.Text)
		}
		for range queries {
			<-done
		}
		lines := make([]string, len(queries))
		for i, s := range out {
			if s.err != nil {
				t.Fatalf("query %d: %v", i, s.err)
			}
			lines[i] = queries[i].ID + "\t" + s.text
		}
		return lines
	}
	on, off := run(true), run(false)
	for i := range on {
		if on[i] != off[i] {
			t.Errorf("answer %d diverged under batching:\n  on:  %s\n  off: %s", i, on[i], off[i])
		}
	}
}
