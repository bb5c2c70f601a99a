package baselines

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"unify/internal/docstore"
	"unify/internal/llm"
	"unify/internal/ops"
	"unify/internal/values"
	"unify/internal/vtime"
)

// LLMPlan is baseline (3): the model is asked to emit a complete plan in
// one shot from the operator descriptions, and the plan is executed by
// prompting the model for every operator — no semantic matching, no
// reduction loop, no optimization. Its accuracy suffers because one-shot
// plans over many operators are error-prone, and its execution is fully
// LLM-based and strictly sequential.
type LLMPlan struct {
	Store  *docstore.Store
	Client llm.Client
	Slots  int
	Batch  int
}

// NewLLMPlan returns the baseline.
func NewLLMPlan(store *docstore.Store, client llm.Client) *LLMPlan {
	return &LLMPlan{Store: store, Client: client, Slots: 4, Batch: 16}
}

// Name implements Baseline.
func (b *LLMPlan) Name() string { return "LLMPlan" }

type oneshotStep struct {
	Op   string            `json:"op"`
	Args map[string]string `json:"args"`
	Var  string            `json:"var"`
}

// Run implements Baseline.
func (b *LLMPlan) Run(ctx context.Context, query string) (Result, error) {
	planRec := llm.NewRecorder(b.Client)
	resp, err := llm.Do(ctx, planRec, llm.NewRequest("plan_oneshot",
		llm.Text("question", query),
		llm.Text("operators", strings.Join(ops.Names(), ", ")),
	))
	if err != nil {
		return Result{}, err
	}
	var steps []oneshotStep
	if err := json.Unmarshal([]byte(resp.Text), &steps); err != nil || len(steps) == 0 {
		// Planning failed outright: fall back to a RAG-style answer.
		docs := contextDocsForSentences(b.Store, b.Store.SearchSentences(query, 100), 30)
		text, calls, err := generate(ctx, b.Client, query, docs)
		if err != nil {
			return Result{}, err
		}
		all := append(planRec.Calls(), calls...)
		return Result{Text: text, Latency: sumDur(all), LLMCalls: len(all)}, nil
	}

	vars := map[string]values.Value{}
	var tasks []vtime.Task
	totalCalls := len(planRec.Calls())
	var final values.Value
	for _, st := range steps {
		rec := llm.NewRecorder(b.Client)
		env := &ops.Env{Store: b.Store, Client: rec, BatchSize: b.Batch}
		inputs := b.resolveInputs(st, vars)
		v, err := runStepLLMFirst(ctx, env, st, inputs)
		if err != nil {
			// A broken plan step: answer from whatever context exists.
			return b.bail(ctx, query, planRec)
		}
		vars["{"+st.Var+"}"] = v
		final = v
		calls := rec.Calls()
		totalCalls += len(calls)
		var units []vtime.Unit
		for _, c := range calls {
			units = append(units, vtime.Unit{Dur: c.Dur, Pool: vtime.OnMachine(0)})
		}
		if len(units) == 0 {
			units = []vtime.Unit{{Dur: time.Millisecond}}
		}
		var deps []int
		if len(tasks) > 0 {
			deps = []int{len(tasks) - 1} // strictly sequential plan
		}
		tasks = append(tasks, vtime.Task{Deps: deps, Units: units})
	}
	sched, err := vtime.NewSchedule(b.Slots).Run(tasks)
	if err != nil {
		return Result{}, err
	}
	text := formatValue(b.Store, final)
	return Result{
		Text:     text,
		Latency:  sumDur(planRec.Calls()) + sched.Makespan,
		LLMCalls: totalCalls,
	}, nil
}

func (b *LLMPlan) bail(ctx context.Context, query string, planRec *llm.Recorder) (Result, error) {
	docs := contextDocsForSentences(b.Store, b.Store.SearchSentences(query, 100), 30)
	text, calls, err := generate(ctx, b.Client, query, docs)
	if err != nil {
		return Result{}, err
	}
	all := append(planRec.Calls(), calls...)
	return Result{Text: text, Latency: sumDur(all), LLMCalls: len(all)}, nil
}

func (b *LLMPlan) resolveInputs(st oneshotStep, vars map[string]values.Value) []values.Value {
	var inputs []values.Value
	resolve := func(ref string) values.Value {
		if v, ok := vars[ref]; ok {
			return v
		}
		return values.NewDocs(b.Store.IDs())
	}
	inputs = append(inputs, resolve(st.Args["Entity"]))
	if e2 := st.Args["Entity2"]; e2 != "" {
		inputs = append(inputs, resolve(e2))
	}
	return inputs
}

// runStepLLMFirst executes one plan step preferring LLM-based physical
// implementations (everything is "instructing the LLM with prompts").
func runStepLLMFirst(ctx context.Context, env *ops.Env, st oneshotStep, inputs []values.Value) (values.Value, error) {
	spec, ok := ops.Get(st.Op)
	if !ok {
		return values.Value{}, fmt.Errorf("baselines: unknown op %q", st.Op)
	}
	args := ops.Args(st.Args)
	cands := spec.Adequate(args, inputs)
	if len(cands) == 0 {
		return values.Value{}, fmt.Errorf("baselines: no implementation for %s", st.Op)
	}
	// LLM-based first.
	for _, c := range cands {
		if c.LLMBased {
			return c.Run(ctx, env, args, inputs)
		}
	}
	return cands[0].Run(ctx, env, args, inputs)
}

func formatValue(store *docstore.Store, v values.Value) string {
	if v.Kind == values.Docs {
		titles := make([]string, 0, len(v.DocIDs))
		for _, id := range v.DocIDs {
			if d, ok := store.Doc(id); ok {
				titles = append(titles, d.Title)
			}
		}
		return strings.Join(titles, ", ")
	}
	return v.String()
}
