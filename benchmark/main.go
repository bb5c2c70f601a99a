// Command benchmark is the repository's wall-clock benchmark: four
// fixed-work workloads over Unify's public entry points, eleven end-to-end
// metrics, and a separate traced run that times each layer from outside.
//
//	go run ./benchmark -workload <adhoc-sim|adhoc-replay|serve-warm|ingest-mix|all> -seed <n>
//	go run ./benchmark -workload serve-warm -seed 7 -trace 1
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero if a
// correctness gate failed. README.md in this directory defines every
// metric and records the seed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart is as close to process start as Go code gets: set-up time
// and span timestamps count from here.
var processStart = time.Now()

// outMetric and output are the result object the driver's contract fixes.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	Comparable    bool   `json:"comparable"`
	Commit        string `json:"commit"`
	AnswersSHA256 string `json:"answers_sha256"`
	Result        output `json:"result"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	seed := fs.Int64("seed", 42, "seed of the generated query lists and mutations")
	seconds := fs.Int("seconds", refSeconds, "nominal length of the timed window; scales the fixed rounds")
	trace := fs.Int("trace", 0, "1 runs the separate traced pass and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/trace-<workload>.jsonl)")
	out := fs.String("out", "", "append each run's result to this file as a JSON line, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments against the bounds file")
	bounds := fs.String("bounds", "BENCHMARK.json", "bounds file -compare reads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		if err := compareFiles(stdout, *bounds, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1, -seconds at least 1, and there are no positional arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	begin := processStart
	code := 0
	var staticSHA string
	for _, name := range names {
		r := &run{workload: name, sc: full, seed: *seed, seconds: *seconds, begin: begin, out: stdout}
		if *trace == 1 {
			r.rec = &recorder{}
		}
		rec, err := r.execute()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if !rec.Result.Correct {
			code = 1
		}
		// The three static workloads answer the same NL queries over the
		// same corpus: in one process their digests can be compared.
		if name != ingestMix && *trace == 0 {
			if staticSHA != "" && rec.AnswersSHA256 != staticSHA {
				fmt.Fprintf(stderr, "benchmark: %s answers differ from the earlier static workload's\n", name)
				code = 1
			}
			staticSHA = rec.AnswersSHA256
		}
		if r.rec != nil {
			path := *traceOut
			if path == "" {
				path = filepath.Join(".bench_build", "trace-"+name+".jsonl")
			}
			if err := r.rec.write(path); err != nil {
				fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "# %d spans written to %s\n", len(r.rec.spans), path)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		line, _ := json.Marshal(rec.Result) // a struct of numbers, strings and a map: cannot fail
		fmt.Fprintf(stdout, "%s\n", line)
		begin = time.Now()
	}
	return code
}

// clients is the number of closed-loop clients a workload drives.
func clients(workload string) int {
	if workload == serveWarm {
		return serveClients
	}
	return 1
}

// execute runs the workload (or its traced pass), prints the provenance
// and every metric by name with its unit, and returns the run's record.
func (r *run) execute() (record, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == r.workload
	}
	if !known {
		return record{}, fmt.Errorf("unknown workload (want one of %v or all)", workloadNames)
	}
	if c := clients(r.workload); c > runtime.NumCPU() {
		return record{}, fmt.Errorf("%d clients on %d CPUs: clients would queue behind each other, refusing", c, runtime.NumCPU())
	}
	commit := vcsRevision()
	fmt.Fprintf(r.out, "# unify benchmark workload=%s seed=%d seconds=%d trace=%t scale=%s\n",
		r.workload, r.seed, r.seconds, r.rec != nil, r.sc.name)
	fmt.Fprintf(r.out, "# host nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)

	guard := newHostClock(r.sc.kernelReps)
	if r.rec == nil {
		r.clk = guard
	}
	kernelBefore := guard.medianOf(r.sc.probeReps)
	var err error
	switch {
	case r.rec != nil:
		err = r.runTraced()
	case r.workload == adhocSim:
		err = r.runAdhocSim()
	case r.workload == adhocReplay:
		err = r.runAdhocReplay()
	case r.workload == serveWarm:
		err = r.runServeWarm()
	default:
		err = r.runIngestMix()
	}
	if err != nil {
		return record{}, err
	}
	kernelAfter := guard.medianOf(r.sc.probeReps)

	metrics := r.layers
	if r.rec == nil {
		metrics = r.endToEnd()
	} else {
		metrics = append(metrics, metric{"host.ref_kernel_ms", (kernelBefore + kernelAfter) / 2, "ms", 2 * r.sc.probeReps})
	}
	comparable := r.sc.comparable && !r.truncated.Load()
	fmt.Fprintf(r.out, "# sizes %s", r.sizes)
	if r.rec == nil {
		fmt.Fprintf(r.out, " window_s=%.3f", r.windowWall.Seconds())
	}
	fmt.Fprintln(r.out)
	fmt.Fprintf(r.out, "# comparable=%t", comparable)
	if !comparable {
		fmt.Fprintf(r.out, " (scale %s, truncated=%t: do not compare these numbers)", r.sc.name, r.truncated.Load())
	}
	fmt.Fprintln(r.out)
	res := output{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]outMetric, len(metrics))}
	for _, m := range metrics {
		fmt.Fprintf(r.out, "metric %s %.6g %s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(r.out, " n=%d", m.N)
		}
		fmt.Fprintln(r.out)
		res.Metrics[m.Name] = outMetric{m.Value, m.Unit}
	}
	fmt.Fprintf(r.out, "host.ref_kernel_ms before=%.4f after=%.4f\n", kernelBefore, kernelAfter)
	if r.rec == nil {
		// The timings above are host-corrected; these lines say by how much.
		fmt.Fprintf(r.out, "host.slowdown p10=%.4f p50=%.4f p90=%.4f kernel_runs=%d (kernel wall / %g ms; every timing is divided by the slowdown around it to the power %g)\n",
			percentile(guard.runs, 10)/kernelRefMs, median(guard.runs)/kernelRefMs, percentile(guard.runs, 90)/kernelRefMs, len(guard.runs), kernelRefMs, hostSensitivity)
		fmt.Fprintf(r.out, "raw queries_per_s %.6g 1/s (the median round as the wall clock saw it)\n", div(float64(r.perRound), median(r.rawRoundS)))
	}
	fmt.Fprintf(r.out, "answers_sha256 %s\n", r.answersSHA)
	fmt.Fprintf(r.out, "operations attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(r.out, "GATE FAILED: %s\n", p)
	}
	return record{Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.rec != nil,
		Comparable: comparable, Commit: commit, AnswersSHA256: r.answersSHA, Result: res}, nil
}

// vcsRevision is the commit the binary was built from, when the build
// recorded one ("go build" in a git checkout does; "go run" and the
// driver's plain-directory checkout do not).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
