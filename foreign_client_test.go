package unify

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"
	"testing"
	"time"

	"unify/internal/corpus"
	"unify/internal/faults"
	"unify/internal/llm"
	"unify/internal/workload"
)

// promptLog is a foreign llm.Client — Complete and Profile, nothing else —
// that keeps every prompt it is sent.
type promptLog struct {
	llm.Client
	mu      sync.Mutex
	prompts []string
}

func (p *promptLog) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	p.mu.Lock()
	p.prompts = append(p.prompts, prompt)
	p.mu.Unlock()
	return p.Client.Complete(ctx, prompt)
}

// take returns the prompts logged since the last call.
func (p *promptLog) take() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.prompts
	p.prompts = nil
	return out
}

// TestForeignClientsReceiveTheSamePrompts pins the bytes that reach
// clients handed in through WithClients: the SHA-256 below was computed by
// this test at the commit before prompts became llm.Requests, when every
// call site rendered its prompt with BuildPrompt and JoinDocs. Planner
// prompts are hashed in arrival order; the executor runs operators
// concurrently, so each query's worker prompts are sorted first.
func TestForeignClientsReceiveTheSamePrompts(t *testing.T) {
	const parentPrompts = "b806b230ebf5cf8700918e3dc4fea417a9af7b948c23c620d19a9c26c2ff74cc"
	ds, err := corpus.GenerateN("sports", 200)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Generate(ds, 1, 42)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Dataset: ds.Name}},
		// Faults sit above the cache: they change which calls are made
		// twice, not which prompts reach the model.
		{"faults, retries, hedging, batching", Config{
			Dataset:    ds.Name,
			FaultPlan:  faults.Uniform(faults.Transient, 0.2, 3, faults.OperatorTasks...),
			HedgeAfter: 2 * time.Second,
			Batching:   true,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			planner := &promptLog{Client: llm.NewSim(llm.SimConfig{Profile: llm.PlannerProfile(), Seed: 1})}
			worker := &promptLog{Client: llm.NewSim(llm.DefaultSimConfig())}
			sys, err := New(WithConfig(tc.cfg), WithCorpus(ds), WithClients(planner, worker))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.New()
			n := 0
			write := func(role string, prompts []string) {
				for _, p := range prompts {
					var size [8]byte
					binary.LittleEndian.PutUint64(size[:], uint64(len(p)))
					sum.Write([]byte(role))
					sum.Write(size[:])
					sum.Write([]byte(p))
					n++
				}
			}
			write("setup", worker.take()) // SCE training, if any
			for _, q := range queries {
				// A failed query has still sent its prompts.
				_, _ = sys.Query(context.Background(), q.Text)
				write("planner", planner.take())
				w := worker.take()
				sort.Strings(w)
				write("worker", w)
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != parentPrompts {
				t.Errorf("%d prompts reached the foreign clients with SHA-256 %s, want %s", n, got, parentPrompts)
			}
		})
	}
}
