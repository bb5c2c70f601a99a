// Command unify-bench regenerates the paper's tables and figures and the
// repository's virtual-time reports.
//
// Usage:
//
//	unify-bench -exp all                # every experiment at paper scale
//	unify-bench -exp fig4 -size 500 -per 2 -datasets sports
//	unify-bench -exp fig5a,fig5b -size 800
//	unify-bench -exp cache,serve -size 400 -per 2 -datasets sports -out .
//	unify-bench -exp scale -machines 2 -queries 4 -size 300 -datasets sports   # CI smoke
//
// The experiments table below is the one list of experiments: the -exp
// help text, the "all" set and the dispatch loop are derived from it.
// -out DIR writes each experiment's result to DIR/BENCH_<exp>.json (the
// checked-in BENCH_*.json files are `-out .` at the sizes EXPERIMENTS.md
// gives); -json FILE writes every result into one object keyed by
// experiment.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"unify/internal/bench"
)

// experiment is one row of the dispatch table. run returns the result to
// serialize and a printer for its human-readable form.
type experiment struct {
	name, title string
	run         func(context.Context, bench.Config) (artifact any, print func(io.Writer), err error)
}

// of pairs a bench driver with its printer.
func of[T any](run func(context.Context, bench.Config) (T, error), print func(io.Writer, T)) func(context.Context, bench.Config) (any, func(io.Writer), error) {
	return func(ctx context.Context, cfg bench.Config) (any, func(io.Writer), error) {
		res, err := run(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res, func(w io.Writer) { print(w, res) }, nil
	}
}

func fig5(title string) func(io.Writer, []bench.OptRow) {
	return func(w io.Writer, rows []bench.OptRow) { bench.PrintFig5(w, title, rows) }
}

var experiments = []experiment{
	{"fig4", "Figure 4", of(bench.RunFig4, bench.PrintFig4)},
	{"table3", "Table III", of(bench.RunTable3, bench.PrintTable3)},
	{"fig5a", "Figure 5(a)", of(bench.RunFig5a, fig5("Figure 5(a): logical optimization (avg exec latency)"))},
	{"fig5b", "Figure 5(b)", of(bench.RunFig5b, fig5("Figure 5(b): physical optimization (avg exec latency)"))},
	{"cache", "Repeated workload (cache)", of(bench.RunCacheBench, bench.PrintCacheBench)},
	{"faults", "Fault injection (faults)", of(bench.RunFaultBench, bench.PrintFaultBench)},
	{"serve", "Concurrent serving (serve)", of(bench.RunServeBench, bench.PrintServeBench)},
	{"batch", "Continuous batching (batch)", of(bench.RunBatchBench, bench.PrintBatchBench)},
	{"scale", "Scale-out (scale)", of(bench.RunScaleBench, bench.PrintScaleBench)},
	{"usql", "USQL vs NL planning (usql)", of(bench.RunUSQLBench, bench.PrintUSQLBench)},
	{"views", "Materialized views across ingest (views)", of(bench.RunViewsBench, bench.PrintViewsBench)},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	var (
		exp      = flag.String("exp", "all", "experiments to run: "+strings.Join(names, ",")+",all")
		size     = flag.Int("size", 0, "corpus size override (0 = paper sizes)")
		per      = flag.Int("per", 5, "query instances per template (paper: 5)")
		datasets = flag.String("datasets", "", "comma-separated dataset subset")
		methods  = flag.String("methods", "", "comma-separated method subset for fig4")
		seed     = flag.Int64("seed", 42, "workload sampling seed")
		jsonOut  = flag.String("json", "", "also write every result to this JSON file, keyed by experiment")
		outDir   = flag.String("out", "", "also write each result to BENCH_<exp>.json in this directory")
		machines = flag.Int("machines", 0, "scale experiment: max cluster width (0 = the default 1,2,4,8 sweep)")
		nQueries = flag.Int("queries", 0, "cap each experiment's query batch (0 = full workload)")
	)
	flag.Parse()

	cfg := bench.Config{Size: *size, PerTemplate: *per, Seed: *seed, MaxQueries: *nQueries}
	if *machines > 0 {
		for m := 1; m <= *machines; m *= 2 {
			cfg.ScaleMachines = append(cfg.ScaleMachines, m)
		}
		if last := cfg.ScaleMachines[len(cfg.ScaleMachines)-1]; last != *machines {
			cfg.ScaleMachines = append(cfg.ScaleMachines, *machines)
		}
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *methods != "" {
		cfg.Methods = strings.Split(*methods, ",")
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.Contains(names, name) {
			fail(name, fmt.Errorf("unknown experiment (want %s or all)", strings.Join(names, ", ")))
		}
		want[name] = true
	}

	ctx := context.Background()
	artifacts := map[string]any{}
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		start := time.Now()
		fmt.Printf("== %s ==\n", e.title)
		res, print, err := e.run(ctx, cfg)
		if err != nil {
			fail(e.title, err)
		}
		print(os.Stdout)
		artifacts[e.name] = res
		if *outDir != "" {
			path := filepath.Join(*outDir, "BENCH_"+e.name+".json")
			if err := writeJSON(path, res); err != nil {
				fail(e.title, err)
			}
			fmt.Printf("%s report written to %s\n", e.name, path)
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", e.title, time.Since(start).Seconds())
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, artifacts); err != nil {
			fail("json output", err)
		}
		fmt.Printf("structured results written to %s\n", *jsonOut)
	}
}

// writeJSON writes v as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "%s failed: %v\n", what, err)
	os.Exit(1)
}
