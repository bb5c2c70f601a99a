// Law review: analytics over the Law Stack Exchange–style corpus,
// demonstrating set operations, comparisons, and year filters, plus the
// Generate (RAG) fallback on an out-of-grammar question.
//
//	go run ./examples/law-review
package main

import (
	"context"
	"fmt"
	"log"

	"unify"
)

func main() {
	sys, err := unify.New(unify.WithDataset("law"), unify.WithSize(800), unify.WithTrainSCE())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	queries := []string{
		"How many questions are about contract or about criminal?",
		"Are there more questions related to liability or questions related to procedure?",
		"How many questions about employment were posted before 2018?",
		"Which areas appear both among questions with over 300 views and among questions related to evidence?",
		"Among areas involving money, which one has the most questions related to liability?",
	}
	for _, q := range queries {
		ans, err := sys.Query(ctx, q)
		if err != nil {
			log.Fatalf("%q: %v", q, err)
		}
		mode := "decomposed plan"
		if ans.Fallback {
			mode = "Generate fallback"
		}
		fmt.Printf("Q: %s\nA: %s   [%s, %d ops, %.1fs]\n\n", q, ans.Text, mode, len(ans.Plan.Nodes), ans.TotalDur.Seconds())
	}

	// A question outside the operator grammar exercises the paper's
	// error handling: the planner appends a Generate operator and
	// answers RAG-style.
	odd := "Please write a short poem summarizing the corpus."
	ans, err := sys.Query(ctx, odd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q: %s\nA: %q   [fallback=%v]\n", odd, ans.Text, ans.Fallback)
}
