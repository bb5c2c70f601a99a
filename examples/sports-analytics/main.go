// Sports analytics: the paper's running example (§I) — a multi-step
// aggregation over grouped, filtered documents — plus a look inside the
// generated plan: the DAG structure, the shared GroupBy, and the physical
// implementation the optimizer chose for each operator.
//
//	go run ./examples/sports-analytics
package main

import (
	"context"
	"fmt"
	"log"

	"unify"
)

func main() {
	sys, err := unify.New(unify.WithDataset("sports"), unify.WithSize(1200), unify.WithTrainSCE())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// The running example of the paper's introduction.
	q := "Among questions with over 500 views, which sport has the highest ratio of " +
		"number of questions related to injury to number of questions related to training?"
	ans, err := sys.Query(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q: %s\n\nA: %s\n\n", q, ans.Text)

	fmt.Println("The optimized physical plan (a DAG — the two count branches run in parallel):")
	fmt.Print(ans.Plan)

	levels := ans.Plan.Levels()
	maxLvl := 0
	for _, l := range levels {
		if l > maxLvl {
			maxLvl = l
		}
	}
	fmt.Printf("\nplan depth %d over %d operators; parallel speedup: sequential %.1fs vs DAG %.1fs\n",
		maxLvl+1, len(ans.Plan.Nodes), ans.SerialExecDur.Seconds(), ans.ExecDur.Seconds())
	fmt.Printf("cost breakdown: planning %.1fs, cardinality estimation %.1fs, execution %.1fs\n",
		ans.PlanningDur.Seconds(), ans.EstimationDur.Seconds(), ans.ExecDur.Seconds())

	// A semantic-subset query: the group labels themselves are filtered
	// by a semantic predicate ("sports involving a ball").
	q2 := "Among sports involving a ball, which one has the most questions related to injury?"
	ans2, err := sys.Query(ctx, q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ: %s\nA: %s\n", q2, ans2.Text)
}
