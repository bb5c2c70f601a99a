package vtime

import (
	"testing"
	"time"
)

// bu builds a batchable unit whose BatchSpec parts sum exactly to its
// duration: base 80ms + template 30ms + payload (payloadMs) + decode
// (decodeMs).
func bu(key string, payloadMs, decodeMs int) Unit {
	base := 80 * time.Millisecond
	tmpl := 30 * time.Millisecond
	payload := time.Duration(payloadMs) * time.Millisecond
	decode := time.Duration(decodeMs) * time.Millisecond
	return Unit{
		Dur:  base + tmpl + payload + decode,
		Pool: OnMachine(0),
		Batch: &BatchSpec{
			Key:             key,
			Base:            base,
			Decode:          decode,
			TemplatePrefill: tmpl,
			PayloadPrefill:  payload,
		},
	}
}

// bup is bu with a payload identity key: units sharing pk carry the
// same documents and split the payload prefill charge.
func bup(key, pk string, payloadMs, decodeMs int) Unit {
	u := bu(key, payloadMs, decodeMs)
	u.Batch.PayloadKey = pk
	return u
}

func batchPolicy() *BatchPolicy {
	return &BatchPolicy{Window: 100 * time.Millisecond, FairnessCap: 2500 * time.Millisecond, MaxBatch: 8}
}

// Two compatible units of different jobs ready together coalesce into one
// invocation with the modeled batched duration, and shares sum to it.
func TestBatchCoalescesAcrossJobs(t *testing.T) {
	s := NewSchedule(4)
	s.Batching = batchPolicy()
	tasks := []Task{
		{Label: "a", Job: 0, Units: []Unit{bu("k", 100, 200)}},
		{Label: "b", Job: 1, Units: []Unit{bu("k", 100, 200)}},
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 {
		t.Fatalf("batches = %d, want 1 coalesced grant: %+v", len(res.Batches), res.Batches)
	}
	g := res.Batches[0]
	if len(g.Members) != 2 {
		t.Fatalf("members = %d, want 2", len(g.Members))
	}
	// D = 80 + 30 + (100+100) + 200*1.15 ≈ 540ms (decode scaling is
	// float-truncated, so compute the exact value via the model).
	want := batchedDur(80*time.Millisecond, 30*time.Millisecond, 200*time.Millisecond, 200*time.Millisecond, 2)
	if want < 539*time.Millisecond || want > 540*time.Millisecond {
		t.Fatalf("model sanity: batchedDur = %v, expected ≈540ms", want)
	}
	if g.Dur != want {
		t.Errorf("batched dur = %v, want %v", g.Dur, want)
	}
	if res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	var shares time.Duration
	for _, m := range g.Members {
		shares += m.Share
	}
	if shares != g.Dur {
		t.Errorf("share sum %v != batch dur %v", shares, g.Dur)
	}
	if res.Busy[0] != want {
		t.Errorf("busy = %v, want %v (one invocation)", res.Busy[0], want)
	}
	if res.Jobs[0].Busy+res.Jobs[1].Busy != want {
		t.Errorf("job busy sum %v != %v", res.Jobs[0].Busy+res.Jobs[1].Busy, want)
	}
}

// Members with equal payload keys scan the same documents, so the batch
// prefills that payload once: three co-scanning queries pay one payload
// charge plus base, template, and scaled decode.
func TestBatchSharedPayloadChargedOnce(t *testing.T) {
	s := NewSchedule(4)
	s.Batching = batchPolicy()
	tasks := []Task{
		{Label: "a", Job: 0, Units: []Unit{bup("k", "chunk0", 400, 100)}},
		{Label: "b", Job: 1, Units: []Unit{bup("k", "chunk0", 400, 100)}},
		{Label: "c", Job: 2, Units: []Unit{bup("k", "chunk0", 400, 100)}},
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || len(res.Batches[0].Members) != 3 {
		t.Fatalf("want one 3-member batch, got %+v", res.Batches)
	}
	g := res.Batches[0]
	// D = 80 + 30 + 400 (once, not 1200) + 100·1.3.
	want := batchedDur(80*time.Millisecond, 30*time.Millisecond, 100*time.Millisecond, 400*time.Millisecond, 3)
	if want < 639*time.Millisecond || want > 641*time.Millisecond {
		t.Fatalf("model sanity: batchedDur = %v, expected ≈640ms", want)
	}
	if g.Dur != want {
		t.Errorf("batched dur = %v, want %v", g.Dur, want)
	}
	solo := 610 * time.Millisecond
	if g.Dur < solo {
		t.Errorf("shared-payload batch %v beats a member's solo %v", g.Dur, solo)
	}
	if res.Busy[0] != want {
		t.Errorf("busy = %v, want one shared invocation %v", res.Busy[0], want)
	}
}

// Payload sharing is per-group: members with distinct payload keys (or
// none) still pay their own payload prefill, and only same-key members
// split one charge.
func TestBatchMixedPayloadGroups(t *testing.T) {
	s := NewSchedule(4)
	s.Batching = batchPolicy()
	tasks := []Task{
		{Label: "a", Job: 0, Units: []Unit{bup("k", "chunk0", 300, 100)}},
		{Label: "b", Job: 1, Units: []Unit{bup("k", "chunk0", 300, 100)}},
		{Label: "c", Job: 2, Units: []Unit{bup("k", "chunk7", 200, 100)}},
		{Label: "d", Job: 3, Units: []Unit{bup("k", "", 150, 100)}},
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || len(res.Batches[0].Members) != 4 {
		t.Fatalf("want one 4-member batch, got %+v", res.Batches)
	}
	// Charged payload: 300 (chunk0, shared by a+b) + 200 (chunk7) + 150
	// (keyless) = 650ms.
	want := batchedDur(80*time.Millisecond, 30*time.Millisecond, 100*time.Millisecond, 650*time.Millisecond, 4)
	if g := res.Batches[0]; g.Dur != want {
		t.Errorf("batched dur = %v, want %v (payload groups 300+200+150)", g.Dur, want)
	}
}

// Units of the SAME job never coalesce — cross-query batching only. This
// is what keeps the solo baseline (a single-job schedule) untouched.
func TestBatchNeverCoalescesWithinJob(t *testing.T) {
	s := NewSchedule(4)
	s.Batching = batchPolicy()
	tasks := []Task{
		{Label: "a", Job: 0, Units: []Unit{bu("k", 100, 200), bu("k", 100, 200)}},
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 2 {
		t.Fatalf("batches = %d, want 2 singleton grants", len(res.Batches))
	}
	for _, g := range res.Batches {
		if len(g.Members) != 1 {
			t.Errorf("same-job units coalesced: %+v", g)
		}
	}
	if res.Makespan != 410*time.Millisecond {
		t.Errorf("makespan = %v, want 410ms (two parallel solos)", res.Makespan)
	}
}

// A singleton grant costs exactly the unbatched duration and the whole
// schedule matches the policy-off schedule bit for bit.
func TestBatchSingletonIdentity(t *testing.T) {
	tasks := []Task{
		{Label: "a", Job: 0, Units: []Unit{bu("k", 100, 200)}},
		{Label: "b", Job: 1, Units: []Unit{bu("other", 50, 100)}},
	}
	off := NewSchedule(2)
	ores, err := off.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	on := NewSchedule(2)
	on.Batching = batchPolicy()
	bres, err := on.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Makespan != ores.Makespan {
		t.Errorf("incompatible keys changed makespan: %v vs %v", bres.Makespan, ores.Makespan)
	}
	if bres.Busy[0] != ores.Busy[0] {
		t.Errorf("busy differs: %v vs %v", bres.Busy[0], ores.Busy[0])
	}
	for _, g := range bres.Batches {
		if len(g.Members) != 1 {
			t.Errorf("incompatible keys coalesced: %+v", g)
		}
		if g.Dur != g.Members[0].Solo {
			t.Errorf("singleton dur %v != solo %v", g.Dur, g.Members[0].Solo)
		}
	}
}

// Hold-the-door: a compatible unit becoming ready within the window joins
// (the batch starts at its ready time); one beyond the window does not.
func TestBatchWindowDeferral(t *testing.T) {
	mk := func(delayMs int) (Result, error) {
		s := NewSchedule(4)
		s.Batching = batchPolicy() // 100ms window
		// Job 0's batchable call sits behind a CPU stage of delayMs in a
		// sequential chain, so it is pending with a future ready time when
		// job 1's leader is granted — the hold-the-door case.
		tasks := []Task{
			{Label: "d", Job: 0, Sequential: true, Units: []Unit{
				{Dur: time.Duration(delayMs) * time.Millisecond},
				bu("k", 100, 200),
			}},
			{Label: "a", Job: 1, Units: []Unit{bu("k", 100, 200)}},
		}
		return s.Run(tasks)
	}

	in, err := mk(60) // within the 100ms window
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Batches) != 1 || len(in.Batches[0].Members) != 2 {
		t.Fatalf("in-window unit did not join: %+v", in.Batches)
	}
	g := in.Batches[0]
	if g.Start != 60*time.Millisecond {
		t.Errorf("batch start = %v, want 60ms (latest member ready)", g.Start)
	}
	if g.Members[0].Wait != 60*time.Millisecond || g.Members[1].Wait != 0 {
		t.Errorf("waits = %v/%v, want leader 60ms (held the door), joiner 0",
			g.Members[0].Wait, g.Members[1].Wait)
	}

	out, err := mk(150) // beyond the window
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range out.Batches {
		if len(g.Members) != 1 {
			t.Errorf("out-of-window unit joined: %+v", g)
		}
	}
}

// Join guard: a candidate whose marginal cost would not undercut its solo
// duration stays out (decode-dominated members where slowdown eats the
// amortization win).
func TestBatchJoinGuardRejectsUnprofitable(t *testing.T) {
	s := NewSchedule(4)
	s.Batching = batchPolicy()
	// Tiny prefill, huge decode: marginal = 0.15*3000 + payload(1) >
	// candidate solo? Solo = 80+30+1+3000 = 3111; marginal = 450+1+0? No:
	// newD-curD = 0.15*3000 + 1 = 451 < 3111, so it WOULD join. Force the
	// reject with an asymmetric pair: candidate is tiny (short decode,
	// tiny solo) joining a huge leader — marginal decode slowdown of the
	// LEADER's decode exceeds the candidate's whole solo duration.
	tasks := []Task{
		{Label: "a", Job: 0, Units: []Unit{bu("k", 10, 3000)}},
		{Label: "b", Job: 1, Units: []Unit{bu("k", 10, 10)}},
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	// Candidate solo = 80+30+10+10 = 130ms; marginal = 0.15*3000 + 10 =
	// 460ms > 130ms -> must run alone.
	for _, g := range res.Batches {
		if len(g.Members) != 1 {
			t.Errorf("unprofitable join accepted: %+v", g)
		}
	}
}

// Fairness cap: members stop joining once the batch duration would exceed
// the cap, unless the leader alone already exceeds it.
func TestBatchFairnessCapBoundsGrowth(t *testing.T) {
	s := NewSchedule(8)
	s.Batching = &BatchPolicy{Window: 100 * time.Millisecond, FairnessCap: 700 * time.Millisecond, MaxBatch: 8}
	var tasks []Task
	for j := 0; j < 6; j++ {
		tasks = append(tasks, Task{Label: string(rune('a' + j)), Job: j, Units: []Unit{bu("k", 100, 200)}})
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Batches {
		if len(g.Members) > 1 && g.Dur > 700*time.Millisecond {
			t.Errorf("batch dur %v exceeds the 700ms fairness cap (%d members)", g.Dur, len(g.Members))
		}
	}
	// D(k) = 110 + 100k + 200(1+0.15(k-1)): k=3 -> 670 <= 700, k=4 -> 800
	// > 700. The first grant must thus stop at 3 members.
	if len(res.Batches[0].Members) != 3 {
		t.Errorf("first grant took %d members, want 3 under the cap", len(res.Batches[0].Members))
	}
}

// MaxBatch bounds member count even when more compatible work is pending.
func TestBatchMaxBatchBound(t *testing.T) {
	s := NewSchedule(8)
	s.Batching = &BatchPolicy{Window: 100 * time.Millisecond, MaxBatch: 2}
	var tasks []Task
	for j := 0; j < 5; j++ {
		tasks = append(tasks, Task{Label: string(rune('a' + j)), Job: j, Units: []Unit{bu("k", 100, 200)}})
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Batches {
		if len(g.Members) > 2 {
			t.Errorf("grant exceeded MaxBatch=2: %d members", len(g.Members))
		}
	}
}

// A member of a batch never finishes before it could have finished solo:
// the batched duration dominates every member's unbatched duration, so
// batching can only trade per-call latency for throughput, never violate
// the solo lower bound.
func TestBatchNeverBeatsSolo(t *testing.T) {
	s := NewSchedule(4)
	s.Batching = batchPolicy()
	tasks := []Task{
		{Label: "a", Job: 0, Units: []Unit{bu("k", 300, 100)}},
		{Label: "b", Job: 1, Units: []Unit{bu("k", 20, 400)}},
		{Label: "c", Job: 2, Units: []Unit{bu("k", 150, 250)}},
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Batches {
		for _, m := range g.Members {
			if end := g.Start + g.Dur; end < m.Ready+m.Solo {
				t.Errorf("member %s finished %v, before solo bound %v", tasks[m.Task].Label, end, m.Ready+m.Solo)
			}
		}
	}
}

// Batched schedules replay bit-for-bit: same tasks, same result.
func TestBatchDeterministicReplay(t *testing.T) {
	mk := func() Result {
		s := NewSchedule(2)
		s.Batching = batchPolicy()
		var tasks []Task
		for j := 0; j < 6; j++ {
			tasks = append(tasks, Task{
				Label: string(rune('a' + j)), Job: j, Sequential: true,
				Units: []Unit{bu("k", 100, 200), bu("k", 50, 100)},
			})
		}
		res, err := s.Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := mk(), mk()
	if r1.Makespan != r2.Makespan {
		t.Fatalf("makespan differs across replays: %v vs %v", r1.Makespan, r2.Makespan)
	}
	if len(r1.Batches) != len(r2.Batches) {
		t.Fatalf("batch count differs: %d vs %d", len(r1.Batches), len(r2.Batches))
	}
	for i := range r1.Batches {
		a, b := r1.Batches[i], r2.Batches[i]
		if a.Start != b.Start || a.Dur != b.Dur || len(a.Members) != len(b.Members) {
			t.Errorf("grant %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Members {
			if a.Members[j] != b.Members[j] {
				t.Errorf("grant %d member %d differs: %+v vs %+v", i, j, a.Members[j], b.Members[j])
			}
		}
	}
}

// Sequential chains re-batch in lockstep: members finish together, their
// successors become ready together, and the next invocation coalesces
// again. busy conservation (JobBusy sums to Busy) holds throughout.
func TestBatchSequentialLockstep(t *testing.T) {
	s := NewSchedule(4)
	s.Batching = batchPolicy()
	tasks := []Task{
		{Label: "a", Job: 0, Sequential: true, Units: []Unit{bu("k", 100, 200), bu("k", 100, 200), bu("k", 100, 200)}},
		{Label: "b", Job: 1, Sequential: true, Units: []Unit{bu("k", 100, 200), bu("k", 100, 200), bu("k", 100, 200)}},
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("batches = %d, want 3 lockstep invocations", len(res.Batches))
	}
	for i, g := range res.Batches {
		if len(g.Members) != 2 {
			t.Errorf("invocation %d has %d members, want 2 (chains fell out of lockstep)", i, len(g.Members))
		}
	}
	var jobSum time.Duration
	for _, j := range res.Jobs {
		jobSum += j.Busy
	}
	if jobSum != res.Busy[0] {
		t.Errorf("job busy sum %v != resource busy %v", jobSum, res.Busy[0])
	}
}
