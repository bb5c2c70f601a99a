// Custom operator: the paper's extensibility hook (§IV-B3) — "additional
// operators can easily be added by defining their logical representations
// for planning and physical implementations for execution."
//
// This example registers a WordCount operator with a pre-programmed and an
// LLM-based implementation, then executes a hand-written physical plan
// that uses it next to the built-in Filter.
//
//	go run ./examples/custom-operator
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"unify"
	"unify/internal/core"
	"unify/internal/ops"
	"unify/internal/values"
)

func main() {
	err := ops.Register(&ops.Spec{
		Name: "WordCount",
		LRs:  []string{"the number of words in [Entity]"},
		Phys: []*ops.Physical{
			{
				Name: "PreWordCount",
				Adequate: func(_ ops.Args, inputs []values.Value) bool {
					return len(inputs) >= 1 && inputs[0].Kind == values.Docs
				},
				Run: func(_ context.Context, env *ops.Env, _ ops.Args, inputs []values.Value) (values.Value, error) {
					total := 0
					for _, id := range inputs[0].DocIDs {
						d, ok := env.Store.Doc(id)
						if !ok {
							return values.Value{}, fmt.Errorf("unknown document %d", id)
						}
						total += len(strings.Fields(d.Text))
					}
					return values.NewNum(float64(total)), nil
				},
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	sys, err := unify.New(unify.WithDataset("sports"), unify.WithSize(400))
	if err != nil {
		log.Fatal(err)
	}

	// A hand-written plan: filter injuries semantically, then apply the
	// custom operator. (The planner can also match a registered operator
	// once its logical representations are taught to the planning model's
	// comprehension — with a real LLM backend that happens for free.)
	plan := &core.Plan{
		Query: "the number of words in questions related to injury",
		Nodes: []*core.Node{
			{
				ID: 0, Op: "Filter", Phys: "SemanticFilter",
				Args:   ops.Args{"Entity": "questions", "Condition": "related to injury"},
				Inputs: []string{"dataset"}, OutVar: "v1", Desc: "injury questions",
			},
			{
				ID: 1, Op: "WordCount", Phys: "PreWordCount",
				Args:   ops.Args{"Entity": "{v1}"},
				Inputs: []string{"{v1}"}, OutVar: "v2", Deps: []int{0},
				Desc: "word volume of injury questions",
			},
		},
	}
	res, err := sys.Executor.Run(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total words across injury-related questions: %s\n", res.Answer.String())
	fmt.Printf("(simulated execution %.1fs, %d LLM calls — WordCount itself is pre-programmed and free)\n",
		res.Makespan.Seconds(), res.LLMCalls)
}
