// Cardinality: a close-up of semantic cardinality estimation (§VI-B) —
// compare uniform, stratified, adaptive, and Unify's learned importance
// sampling on real predicates, against full-evaluation ground truth.
//
//	go run ./examples/cardinality
package main

import (
	"context"
	"fmt"
	"log"

	"unify"
	"unify/internal/sce"
)

func main() {
	sys, err := unify.New(unify.WithDataset("sports"), unify.WithSize(1500), unify.WithTrainSCE())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	est := sys.Estimator

	preds := []string{
		"related to football",
		"related to injury",
		"related to golf",
		"involving a ball",
	}
	ns := sys.Store.Len() / 100 // the paper's 1% sample budget

	fmt.Printf("sample budget: %d of %d documents (1%%)\n", ns, sys.Store.Len())
	fmt.Printf("learned importance function: %v\n\n", fmtF(est.Importance()))
	fmt.Printf("%-22s %8s %10s %10s %10s %10s\n", "predicate", "truth", "uniform", "stratified", "ais", "unify")
	for _, p := range preds {
		truth, err := est.TrueCardinality(ctx, p, 16)
		if err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%-22s %8d", p, truth)
		for _, m := range []sce.Method{sce.Uniform, sce.Stratified, sce.AIS, sce.Unify} {
			e, _, err := est.Estimate(ctx, m, p, ns)
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf(" %10.0f", e)
		}
		fmt.Println(row)
	}
	fmt.Println("\nq-error = max(est/truth, truth/est); Unify's importance function")
	fmt.Println("concentrates samples near the predicate embedding, where satisfied")
	fmt.Println("documents live, so small budgets already estimate well.")
}

func fmtF(f []float64) []string {
	out := make([]string, len(f))
	for i, v := range f {
		out[i] = fmt.Sprintf("%.2f", v)
	}
	return out
}
