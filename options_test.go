package unify

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"unify/internal/corpus"
	"unify/internal/llm"
	"unify/internal/optimizer"
)

// TestOptionsMatchWithConfig verifies the two spellings of one
// construction agree — individual options and a whole Config: same
// answer text for the same query on the same corpus and simulator seed.
func TestOptionsMatchWithConfig(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 150)
	if err != nil {
		t.Fatal(err)
	}
	sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}

	whole, err := New(WithConfig(Config{Dataset: "sports", Sim: &sim}), WithCorpus(ds))
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(WithCorpus(ds), WithDataset("sports"), WithSim(sim))
	if err != nil {
		t.Fatal(err)
	}
	if single.Config.Slots != whole.Config.Slots || single.Config.Dataset != whole.Config.Dataset {
		t.Fatalf("configs diverge: %+v vs %+v", single.Config, whole.Config)
	}

	const q = "How many questions are about tennis?"
	a1, err := whole.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := single.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Text != a2.Text {
		t.Errorf("With* answer %q != WithConfig answer %q", a2.Text, a1.Text)
	}
}

// TestNewOptionOverrides checks that individual options land in Config.
func TestNewOptionOverrides(t *testing.T) {
	sys, err := New(
		WithConfig(Config{Slots: 2, BatchSize: 7}),
		WithDataset("sports"),
		WithSize(120),
		WithMode(optimizer.Rule),
		WithCacheBytes(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Config.Slots != 2 || sys.Config.BatchSize != 7 || sys.Config.Mode != optimizer.Rule {
		t.Fatalf("options not applied: %+v", sys.Config)
	}
	if sys.Pool.Slots() != 2 {
		t.Fatalf("pool slots = %d, want the configured 2", sys.Pool.Slots())
	}
	if sys.Store.Len() != 120 {
		t.Fatalf("corpus size = %d, want 120", sys.Store.Len())
	}
}

// TestQueryWithTimeout verifies per-query deadlines fire.
func TestQueryWithTimeout(t *testing.T) {
	sys, _ := openSmall(t, 120)
	_, err := sys.Query(context.Background(),
		"How many questions are about tennis?", WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// A generous deadline must not interfere.
	if _, err := sys.Query(context.Background(),
		"How many questions are about tennis?", WithTimeout(time.Minute)); err != nil {
		t.Fatalf("query with ample timeout failed: %v", err)
	}
}

// TestQueryModeOverride verifies a per-query optimizer override applies
// without mutating the system's shared optimizer.
func TestQueryModeOverride(t *testing.T) {
	sys, _ := openSmall(t, 150)
	before := sys.Optimizer.Mode

	const q = "How many questions are about golf?"
	base, err := sys.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	over, err := sys.Query(context.Background(), q, WithModeOverride(optimizer.Rule))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Optimizer.Mode != before {
		t.Fatalf("override mutated the shared optimizer: %v -> %v", before, sys.Optimizer.Mode)
	}
	// Deterministic judge: strategy changes the plan, not the answer.
	if base.Text != over.Text {
		t.Errorf("rule-mode answer %q != cost-based answer %q", over.Text, base.Text)
	}
	// And the override must not stick for later queries.
	again, err := sys.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text != base.Text {
		t.Errorf("answer after override %q != before %q", again.Text, base.Text)
	}
}

// TestQueryAnalyzeOption verifies WithAnalyze captures a span tree even
// when the caller installed no tracer.
func TestQueryAnalyzeOption(t *testing.T) {
	sys, _ := openSmall(t, 120)
	ans, err := sys.Query(context.Background(),
		"How many questions are about tennis?", WithAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace == nil {
		t.Fatal("WithAnalyze returned no trace")
	}
}

// TestPlanWithOptions verifies Plan accepts the same variadic options.
func TestPlanWithOptions(t *testing.T) {
	sys, _ := openSmall(t, 120)
	plan, _, err := sys.Plan(context.Background(),
		"How many questions are about tennis?", WithModeOverride(optimizer.Rule))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nodes) == 0 {
		t.Fatal("empty plan")
	}
	if _, _, err := sys.Plan(context.Background(), "How many questions are about tennis?"); err != nil {
		t.Fatalf("two-argument Plan regressed: %v", err)
	}
}

// TestPlanIsQueryFrontHalf: Plan is Query's frontend and optimize phases
// and nothing else. On two identical fresh systems, one planning and one
// answering, the plans are the same and Plan's duration is the answer's
// planning plus estimation time — on both frontend routes, with and
// without a per-query optimizer mode.
func TestPlanIsQueryFrontHalf(t *testing.T) {
	queries := []string{
		"How many questions about football have more than 500 views?",
		"SELECT COUNT(*) FROM sports WHERE 'related to football' AND views > 500",
	}
	for _, q := range queries {
		for _, opts := range [][]QueryOption{nil, {WithModeOverride(optimizer.Rule)}} {
			planner, _ := openSmall(t, 200)
			answerer, _ := openSmall(t, 200)
			plan, dur, err := planner.Plan(context.Background(), q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := answerer.Query(context.Background(), q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, ans.Plan) {
				t.Errorf("%q (%d options): Plan returned\n%v\nQuery executed\n%v", q, len(opts), plan, ans.Plan)
			}
			if want := ans.PlanningDur + ans.EstimationDur; dur != want {
				t.Errorf("%q (%d options): Plan took %v, Query planned and estimated in %v", q, len(opts), dur, want)
			}
		}
	}
}

// TestConfigSurface pins the configuration surface — Config's fields, and
// the exported functions of options.go that return an Option or a
// QueryOption — to testdata/config_surface.txt, so a new knob is a listed
// diff exactly as testdata/metric_names.txt makes a new metric one.
// Regenerate with UPDATE_GOLDENS=1 go test -run ConfigSurface.
func TestConfigSurface(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Config fields\n")
	cfg := reflect.TypeOf(Config{})
	for i := 0; i < cfg.NumField(); i++ {
		b.WriteString(cfg.Field(i).Name + "\n")
	}
	file, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"Option", "QueryOption"} {
		b.WriteString("# functions returning " + kind + "\n")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Recv != nil || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if res, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && res.Name == kind {
				b.WriteString(fn.Name.Name + "\n")
			}
		}
	}
	const golden = "testdata/config_surface.txt"
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("configuration surface diverged from %s:\ngot:\n%s\nwant:\n%s", golden, b.String(), want)
	}
}
