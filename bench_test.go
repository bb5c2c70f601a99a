package unify

// Benchmarks regenerating the paper's tables and figures at reduced scale
// (fast enough for `go test -bench=.`), plus ablations over the design
// choices DESIGN.md calls out. Paper-scale runs use cmd/unify-bench.
//
// Reported custom metrics:
//   accuracy_%      fraction of workload queries answered correctly
//   sim_latency_s   simulated end-to-end latency per query (virtual clock)
//   qerr_p50/p95    q-error percentiles (Table III)

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"unify/internal/baselines"
	"unify/internal/corpus"
	"unify/internal/docstore"
	"unify/internal/embedding"
	"unify/internal/llm"
	"unify/internal/nlq"
	"unify/internal/optimizer"
	"unify/internal/sce"
	"unify/internal/vector"
	"unify/internal/workload"
)

const benchSize = 400 // documents per corpus in benchmark mode

func benchSystem(b *testing.B, mode optimizer.Mode) (*System, []workload.Query) {
	b.Helper()
	ds, err := corpus.GenerateN("sports", benchSize)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(WithConfig(Config{Dataset: "sports", Mode: mode, TrainSCE: true}), WithCorpus(ds))
	if err != nil {
		b.Fatal(err)
	}
	return sys, workload.Generate(ds, 1, 42)
}

func runWorkload(b *testing.B, run func(q workload.Query) (string, time.Duration, error), queries []workload.Query) (acc float64, avgLat time.Duration) {
	b.Helper()
	correct := 0
	var total time.Duration
	for _, q := range queries {
		text, lat, err := run(q)
		if err != nil {
			continue
		}
		if workload.Score(q, text) {
			correct++
		}
		total += lat
	}
	return float64(correct) / float64(len(queries)), total / time.Duration(len(queries))
}

// BenchmarkFig4 regenerates Figure 4's accuracy and latency bars (sports,
// reduced scale) — one sub-benchmark per method.
func BenchmarkFig4(b *testing.B) {
	sys, queries := benchSystem(b, optimizer.CostBased)
	methods := map[string]func(q workload.Query) (string, time.Duration, error){
		"Unify": func(q workload.Query) (string, time.Duration, error) {
			ans, err := sys.Query(context.Background(), q.Text)
			if err != nil {
				return "", 0, err
			}
			return ans.Text, ans.TotalDur, nil
		},
	}
	for _, name := range []string{"RAG", "RecurRAG", "LLMPlan", "Sample", "Manual"} {
		var bl baselines.Baseline
		switch name {
		case "RAG":
			bl = baselines.NewRAG(sys.Store, sys.WorkerClient)
		case "RecurRAG":
			bl = baselines.NewRecurRAG(sys.Store, sys.WorkerClient)
		case "LLMPlan":
			bl = baselines.NewLLMPlan(sys.Store, sys.WorkerClient)
		case "Sample":
			bl = baselines.NewSample(sys.Store, sys.WorkerClient)
		case "Manual":
			bl = baselines.NewManual(sys.Store, sys.WorkerClient)
		}
		blc := bl
		methods[name] = func(q workload.Query) (string, time.Duration, error) {
			res, err := blc.Run(context.Background(), q.Text)
			return res.Text, res.Latency, err
		}
	}
	order := []string{"RAG", "RecurRAG", "LLMPlan", "Sample", "Manual", "Unify"}
	for _, name := range order {
		run := methods[name]
		b.Run(name, func(b *testing.B) {
			var acc float64
			var lat time.Duration
			for i := 0; i < b.N; i++ {
				acc, lat = runWorkload(b, run, queries)
			}
			b.ReportMetric(100*acc, "accuracy_%")
			b.ReportMetric(lat.Seconds(), "sim_latency_s")
		})
	}
}

// BenchmarkTable3SCE regenerates Table III's q-errors at reduced scale.
func BenchmarkTable3SCE(b *testing.B) {
	sys, queries := benchSystem(b, optimizer.CostBased)
	preds := workload.SemanticConditions(queries)
	ctx := context.Background()
	truths := map[string]float64{}
	for _, p := range preds {
		tc, err := sys.Estimator.TrueCardinality(ctx, p, 16)
		if err != nil {
			b.Fatal(err)
		}
		truths[p] = float64(tc)
	}
	ns := benchSize / 100 * 2 // 2% budget at this reduced scale
	for _, method := range []sce.Method{sce.Uniform, sce.Stratified, sce.AIS, sce.Unify} {
		method := method
		b.Run(string(method), func(b *testing.B) {
			var qerrs []float64
			for i := 0; i < b.N; i++ {
				qerrs = qerrs[:0]
				for _, p := range preds {
					for r := 0; r < 4; r++ {
						e, _, err := sys.Estimator.EstimateSeeded(ctx, method, p, ns, fmt.Sprint("rep", r))
						if err != nil {
							b.Fatal(err)
						}
						qerrs = append(qerrs, sce.QError(e, truths[p]))
					}
				}
			}
			sort.Float64s(qerrs)
			b.ReportMetric(qerrs[len(qerrs)/2], "qerr_p50")
			b.ReportMetric(qerrs[len(qerrs)*95/100], "qerr_p95")
		})
	}
}

// BenchmarkFig5aLogicalOpt regenerates Figure 5(a): DAG-parallel vs
// sequential operator execution.
func BenchmarkFig5aLogicalOpt(b *testing.B) {
	sys, queries := benchSystem(b, optimizer.CostBased)
	var par, ser time.Duration
	b.Run("Unify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par, ser = 0, 0
			n := 0
			for _, q := range queries {
				ans, err := sys.Query(context.Background(), q.Text)
				if err != nil {
					continue
				}
				par += ans.ExecDur
				ser += ans.SerialExecDur
				n++
			}
			par /= time.Duration(n)
			ser /= time.Duration(n)
		}
		b.ReportMetric(par.Seconds(), "sim_latency_s")
	})
	b.Run("Unify-noLO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = i
		}
		b.ReportMetric(ser.Seconds(), "sim_latency_s")
	})
}

// BenchmarkFig5bPhysicalOpt regenerates Figure 5(b): Rule vs cost-based vs
// ground-truth physical optimization.
func BenchmarkFig5bPhysicalOpt(b *testing.B) {
	for _, variant := range []struct {
		name string
		mode optimizer.Mode
	}{
		{"Unify-Rule", optimizer.Rule},
		{"Unify", optimizer.CostBased},
		{"Unify-GD", optimizer.GroundTruth},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			sys, queries := benchSystem(b, variant.mode)
			var lat time.Duration
			for i := 0; i < b.N; i++ {
				var total time.Duration
				n := 0
				for _, q := range queries {
					ans, err := sys.Query(context.Background(), q.Text)
					if err != nil {
						continue
					}
					total += ans.ExecDur
					n++
				}
				lat = total / time.Duration(n)
			}
			b.ReportMetric(lat.Seconds(), "sim_latency_s")
		})
	}
}

// BenchmarkAblationK sweeps the candidate-operator count k (paper default
// 5): too small misses operators, too large wastes rerank calls.
func BenchmarkAblationK(b *testing.B) {
	ds, err := corpus.GenerateN("sports", benchSize)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Generate(ds, 1, 42)
	for _, k := range []int{2, 5, 8} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sys, err := New(WithConfig(Config{Dataset: "sports", K: k, TrainSCE: true}), WithCorpus(ds))
			if err != nil {
				b.Fatal(err)
			}
			var acc float64
			var plend time.Duration
			for i := 0; i < b.N; i++ {
				correct, n := 0, 0
				var ptotal time.Duration
				for _, q := range queries {
					ans, err := sys.Query(context.Background(), q.Text)
					if err != nil {
						continue
					}
					if workload.Score(q, ans.Text) {
						correct++
					}
					ptotal += ans.PlanningDur
					n++
				}
				acc = float64(correct) / float64(len(queries))
				plend = ptotal / time.Duration(n)
			}
			b.ReportMetric(100*acc, "accuracy_%")
			b.ReportMetric(plend.Seconds(), "planning_s")
		})
	}
}

// BenchmarkAblationIndexScan compares the index-assisted semantic filter
// against a full linear scan on a selective predicate.
func BenchmarkAblationIndexScan(b *testing.B) {
	sys, _ := benchSystem(b, optimizer.CostBased)
	ctx := context.Background()
	q := "How many questions about fencing have more than 100 views?"
	b.Run("CostBased(IndexFilter)", func(b *testing.B) {
		var lat time.Duration
		for i := 0; i < b.N; i++ {
			ans, err := sys.Query(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			lat = ans.ExecDur
		}
		b.ReportMetric(lat.Seconds(), "sim_latency_s")
	})
	b.Run("Rule(LinearSemantic)", func(b *testing.B) {
		rsys, err := New(WithConfig(Config{Dataset: "sports", Mode: optimizer.Rule, TrainSCE: true}), WithCorpus(sys.Dataset))
		if err != nil {
			b.Fatal(err)
		}
		var lat time.Duration
		for i := 0; i < b.N; i++ {
			ans, err := rsys.Query(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			lat = ans.ExecDur
		}
		b.ReportMetric(lat.Seconds(), "sim_latency_s")
	})
}

// BenchmarkHNSWVsFlat measures the raw vector-search ablation behind
// IndexScan.
func BenchmarkHNSWVsFlat(b *testing.B) {
	ds, err := corpus.GenerateN("sports", 2000)
	if err != nil {
		b.Fatal(err)
	}
	emb := embedding.New(embedding.DefaultDim)
	flat := vector.NewFlat()
	hnsw := vector.NewHNSW(vector.DefaultHNSWConfig())
	for _, d := range ds.Docs {
		v := emb.Embed(d.Text)
		flat.Add(d.ID, v)
		hnsw.Add(d.ID, v)
	}
	query := emb.Embed("related to injury recovery")
	b.Run("Flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flat.Search(query, 50)
		}
	})
	b.Run("HNSW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hnsw.Search(query, 50)
		}
	})
}

// benchDocs is the corpus the index-construction benchmarks build over.
func benchDocs(b *testing.B, n int) []docstore.Document {
	b.Helper()
	ds, err := corpus.GenerateN("sports", n)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Documents()
}

// BenchmarkHNSWBuild measures graph construction alone: 600 document
// vectors, embedded beforehand, inserted in order.
func BenchmarkHNSWBuild(b *testing.B) {
	docs := benchDocs(b, 600)
	emb := embedding.New(embedding.DefaultDim)
	vecs := make([][]float32, len(docs))
	for i, d := range docs {
		vecs[i] = emb.Embed(d.Text)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hnsw := vector.NewHNSW(vector.DefaultHNSWConfig())
		for j, v := range vecs {
			if err := hnsw.Add(docs[j].ID, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkUpdateDoc measures Store.UpdateDocs on a 600-document store with
// one and with three documents per call: the graph is rebuilt once per
// call, so /3 should cost about what /1 does, not three times as much.
func BenchmarkUpdateDoc(b *testing.B) {
	docs := benchDocs(b, 600)
	for _, per := range []int{1, 3} {
		b.Run(fmt.Sprint(per), func(b *testing.B) {
			store, err := docstore.New("bench", docs)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]docstore.Document, per)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					at := (i*per + j) % len(docs)
					batch[j] = docs[at]
					batch[j].Text = docs[len(docs)-1-at].Text
				}
				if err := store.UpdateDocs(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreSearchDocs measures the IndexScan access path end to end:
// embed the query text, search the graph.
func BenchmarkStoreSearchDocs(b *testing.B) {
	store, err := docstore.New("bench", benchDocs(b, 600))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResults = store.SearchDocs("related to injury recovery", 50)
	}
}

var benchResults []vector.Result

// BenchmarkEmbedding measures the text-embedding substrate.
func BenchmarkEmbedding(b *testing.B) {
	emb := embedding.New(embedding.DefaultDim)
	text := "Title: How to recover from a sprained ankle\nBody: injury recovery advice for marathon training"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		emb.Embed(text)
	}
}

// BenchmarkQueryParse measures the comprehension grammar.
func BenchmarkQueryParse(b *testing.B) {
	q := "Among questions with over 500 views, which sport has the highest ratio of number of questions related to injury to number of questions related to training?"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nlq.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryReduction measures one reduction step.
func BenchmarkQueryReduction(b *testing.B) {
	q, err := nlq.Parse("How many questions about football have more than 500 views?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := nlq.Reduce(q, "Filter", 1); !ok {
			b.Fatal("reduce failed")
		}
	}
}

// BenchmarkSimComplete measures one simulated model invocation per
// operator prompt family, at the executor's batch size of 16 documents
// (filter_doc carries one). There is no memo below the cache layer, so
// every iteration is full inference; run with -benchmem.
func BenchmarkSimComplete(b *testing.B) {
	ds, err := corpus.GenerateN("sports", 16)
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, len(ds.Docs))
	for i, d := range ds.Docs {
		texts[i] = d.Text
	}
	docs := llm.JoinDocs(texts)
	prompts := []struct{ name, prompt string }{
		{"filter_doc", llm.BuildPrompt("filter_doc", map[string]string{"condition": "related to injury", "doc": texts[0]})},
		{"filter_batch", llm.BuildPrompt("filter_batch", map[string]string{"condition": "related to injury", "docs": docs})},
		{"classify_batch", llm.BuildPrompt("classify_batch", map[string]string{"class": "topic", "docs": docs})},
		{"extract_batch", llm.BuildPrompt("extract_batch", map[string]string{"target": "sport", "docs": docs})},
	}
	sim := llm.NewSim(llm.DefaultSimConfig())
	ctx := context.Background()
	for _, p := range prompts {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(p.prompt)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Complete(ctx, p.prompt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndQuery measures one complete Unify query (planning +
// optimization + execution) on the reduced corpus.
func BenchmarkEndToEndQuery(b *testing.B) {
	sys, _ := benchSystem(b, optimizer.CostBased)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, "What is the average score of questions related to injury?"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTau sweeps the plan-diversity parameter τ (paper
// default 0.75): τ=1 explores exhaustively; small τ backtracks early.
func BenchmarkAblationTau(b *testing.B) {
	ds, err := corpus.GenerateN("sports", benchSize)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Generate(ds, 1, 42)
	for _, tau := range []float64{0.25, 0.75, 1.0} {
		tau := tau
		b.Run(fmt.Sprintf("tau=%.2f", tau), func(b *testing.B) {
			sys, err := New(WithConfig(Config{Dataset: "sports", Tau: tau, TrainSCE: true}), WithCorpus(ds))
			if err != nil {
				b.Fatal(err)
			}
			var acc float64
			var plan time.Duration
			for i := 0; i < b.N; i++ {
				correct, n := 0, 0
				var total time.Duration
				for _, q := range queries {
					ans, err := sys.Query(context.Background(), q.Text)
					if err != nil {
						continue
					}
					if workload.Score(q, ans.Text) {
						correct++
					}
					total += ans.PlanningDur
					n++
				}
				acc = float64(correct) / float64(len(queries))
				plan = total / time.Duration(n)
			}
			b.ReportMetric(100*acc, "accuracy_%")
			b.ReportMetric(plan.Seconds(), "planning_s")
		})
	}
}

// BenchmarkAblationSCEBuckets sweeps the importance-function resolution.
func BenchmarkAblationSCEBuckets(b *testing.B) {
	ds, err := corpus.GenerateN("sports", 1200)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Generate(ds, 3, 42)
	preds := workload.SemanticConditions(queries)
	ctx := context.Background()
	for _, buckets := range []int{4, 8, 16} {
		buckets := buckets
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			sys, err := New(WithConfig(Config{Dataset: "sports", SCEBuckets: buckets, TrainSCE: true}), WithCorpus(ds))
			if err != nil {
				b.Fatal(err)
			}
			truths := map[string]float64{}
			for _, p := range preds {
				tc, err := sys.Estimator.TrueCardinality(ctx, p, 16)
				if err != nil {
					b.Fatal(err)
				}
				truths[p] = float64(tc)
			}
			var qerrs []float64
			for i := 0; i < b.N; i++ {
				qerrs = qerrs[:0]
				for _, p := range preds {
					e, _, err := sys.Estimator.Estimate(ctx, sce.Unify, p, 12)
					if err != nil {
						b.Fatal(err)
					}
					qerrs = append(qerrs, sce.QError(e, truths[p]))
				}
			}
			sort.Float64s(qerrs)
			b.ReportMetric(qerrs[len(qerrs)/2], "qerr_p50")
			b.ReportMetric(qerrs[len(qerrs)-1], "qerr_max")
		})
	}
}

// BenchmarkAblationBatchSize sweeps the per-invocation document batch.
func BenchmarkAblationBatchSize(b *testing.B) {
	ds, err := corpus.GenerateN("sports", benchSize)
	if err != nil {
		b.Fatal(err)
	}
	q := "How many questions about football have more than 200 views?"
	for _, batch := range []int{4, 16, 32} {
		batch := batch
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sys, err := New(WithConfig(Config{Dataset: "sports", BatchSize: batch, TrainSCE: true}), WithCorpus(ds))
			if err != nil {
				b.Fatal(err)
			}
			var lat time.Duration
			for i := 0; i < b.N; i++ {
				ans, err := sys.Query(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				lat = ans.ExecDur
			}
			b.ReportMetric(lat.Seconds(), "sim_latency_s")
		})
	}
}

// BenchmarkRepeatedWorkload measures the shared cache hierarchy on a
// repeated query batch: a cold pass primes every layer during setup, then
// each iteration replays the batch warm. Reported metrics: the cold/warm
// latency ratio plus per-layer hit rates (paper §motivation: analytics
// workloads re-issue near-identical queries and sub-plans).
func BenchmarkRepeatedWorkload(b *testing.B) {
	sys, queries := benchSystem(b, optimizer.CostBased)
	queries = queries[:10]
	ctx := context.Background()
	var cold time.Duration
	for _, q := range queries {
		ans, err := sys.Query(ctx, q.Text)
		if err != nil {
			b.Fatal(err)
		}
		cold += ans.TotalDur
	}
	b.ResetTimer()
	var warm time.Duration
	for i := 0; i < b.N; i++ {
		warm = 0
		for _, q := range queries {
			ans, err := sys.Query(ctx, q.Text)
			if err != nil {
				b.Fatal(err)
			}
			warm += ans.TotalDur
		}
	}
	if warm > 0 {
		b.ReportMetric(float64(cold)/float64(warm), "cold/warm_x")
	}
	st := sys.CacheStats()
	b.ReportMetric(st["llm"].HitRate(), "llm_hit_rate")
	b.ReportMetric(st["plan"].HitRate(), "plan_hit_rate")
	b.ReportMetric(warm.Seconds()/float64(len(queries)), "warm_sim_latency_s")
}
