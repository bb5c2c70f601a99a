// Quickstart: open a Unify system over the Sports corpus and run a few
// natural-language analytics queries end to end.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"unify"
)

func main() {
	// A reduced corpus keeps the example instant; drop Size for the
	// paper's 3,898 documents.
	sys, err := unify.New(unify.WithDataset("sports"), unify.WithSize(800), unify.WithTrainSCE())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	queries := []string{
		"How many questions about football have more than 500 views?",
		"What is the average score of questions related to injury?",
		"List the top 3 most viewed questions about tennis.",
	}
	for _, q := range queries {
		ans, err := sys.Query(ctx, q)
		if err != nil {
			log.Fatalf("%q: %v", q, err)
		}
		fmt.Printf("Q: %s\nA: %s\n   (simulated latency %.1fs over %d LLM calls; plan: %d operators)\n\n",
			q, ans.Text, ans.TotalDur.Seconds(), ans.LLMCalls, len(ans.Plan.Nodes))
	}
}
