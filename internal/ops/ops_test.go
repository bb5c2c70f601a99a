package ops

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"unify/internal/corpus"
	"unify/internal/docstore"
	"unify/internal/llm"
	"unify/internal/values"
)

// testEnv builds a small sports environment with a noise-free model.
func testEnv(t *testing.T, n int) (*Env, *corpus.Dataset) {
	t.Helper()
	ds, err := corpus.GenerateN("sports", n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := docstore.New("sports", ds.Documents(), docstore.WithoutSentences())
	if err != nil {
		t.Fatal(err)
	}
	cfg := llm.DefaultSimConfig()
	cfg.FilterNoise, cfg.LabelNoise = 0, 0
	return &Env{Store: store, Client: llm.NewSim(cfg), BatchSize: 16}, ds
}

func phys(t *testing.T, op, name string) *Physical {
	t.Helper()
	spec, ok := Get(op)
	if !ok {
		t.Fatalf("operator %s missing", op)
	}
	for _, p := range spec.Phys {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("%s has no physical %s", op, name)
	return nil
}

func allDocs(env *Env) values.Value { return values.NewDocs(env.Store.IDs()) }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"Scan", "Filter", "Compare", "GroupBy", "Count", "Sum", "Max", "Min",
		"Average", "Median", "Percentile", "OrderBy", "Classify", "Extract",
		"TopK", "Join", "Union", "Intersection", "Complementary", "Compute",
		"Generate",
	}
	if len(Names()) != 21 {
		t.Errorf("registry has %d operators, want 21 (Table II)", len(Names()))
	}
	for _, name := range want {
		spec, ok := Get(name)
		if !ok {
			t.Errorf("operator %s missing", name)
			continue
		}
		if len(spec.LRs) == 0 || len(spec.Phys) == 0 {
			t.Errorf("operator %s incomplete", name)
		}
		if len(spec.Templates) != len(spec.LRs) {
			t.Errorf("operator %s: %d templates for %d LRs", name, len(spec.Templates), len(spec.LRs))
		}
	}
}

func TestDualImplementations(t *testing.T) {
	// Every operator except Scan/Generate must offer both families.
	for _, spec := range All() {
		if spec.Name == "Generate" {
			continue
		}
		var pre, sem bool
		for _, p := range spec.Phys {
			if p.LLMBased {
				sem = true
			} else {
				pre = true
			}
		}
		if !pre && spec.Name != "Generate" {
			t.Errorf("%s lacks a pre-programmed implementation", spec.Name)
		}
		if !sem && spec.Name != "Scan" {
			t.Errorf("%s lacks an LLM-based implementation", spec.Name)
		}
	}
}

func TestExactFilter(t *testing.T) {
	env, ds := testEnv(t, 120)
	p := phys(t, "Filter", "ExactFilter")
	args := Args{"Condition": "with more than 400 views"}
	out, err := p.Run(context.Background(), env, args, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range ds.Docs {
		if d.Hidden.Views > 400 {
			want++
		}
	}
	if out.Len() != want {
		t.Errorf("exact filter kept %d, want %d", out.Len(), want)
	}
	// Semantic condition must be inadequate for ExactFilter.
	if p.Adequate(Args{"Condition": "related to injury"}, []values.Value{allDocs(env)}) {
		t.Error("ExactFilter adequate for semantic condition")
	}
}

func TestSemanticFilterMatchesJudge(t *testing.T) {
	env, _ := testEnv(t, 100)
	p := phys(t, "Filter", "SemanticFilter")
	out, err := p.Run(context.Background(), env, Args{"Condition": "related to injury"}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != values.Docs || out.Len() == 0 {
		t.Fatalf("semantic filter output %v", out.Kind)
	}
	// Per-doc vs batched judgments must agree (noise off).
	single := 0
	for _, id := range env.Store.IDs() {
		d, _ := env.Store.Doc(id)
		resp, err := env.Client.Complete(context.Background(), llm.BuildPrompt("filter_doc", map[string]string{
			"condition": "related to injury", "doc": d.Text,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Text == "yes" {
			single++
		}
	}
	if out.Len() != single {
		t.Errorf("batched %d vs single %d", out.Len(), single)
	}
}

func TestIndexFilterSubsetOfSemantic(t *testing.T) {
	env, _ := testEnv(t, 300)
	sem := phys(t, "Filter", "SemanticFilter")
	idx := phys(t, "Filter", "IndexFilter")
	full, err := sem.Run(context.Background(), env, Args{"Condition": "related to golf"}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	k := fmt.Sprint(3 * full.Len())
	approx, err := idx.Run(context.Background(), env, Args{"Condition": "related to golf", "_scanK": k}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	inFull := map[int]bool{}
	for _, id := range full.DocIDs {
		inFull[id] = true
	}
	for _, id := range approx.DocIDs {
		if !inFull[id] {
			t.Errorf("IndexFilter returned %d not in the exact result", id)
		}
	}
	recall := float64(approx.Len()) / float64(full.Len())
	if recall < 0.7 {
		t.Errorf("IndexFilter recall %.2f too low (%d of %d)", recall, approx.Len(), full.Len())
	}
}

func TestGroupByAndAggregates(t *testing.T) {
	env, _ := testEnv(t, 150)
	g := phys(t, "GroupBy", "SemanticGroupBy")
	groups, err := g.Run(context.Background(), env, Args{"Attribute": "sport"}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	if groups.Kind != values.Groups || groups.Len() < 3 {
		t.Fatalf("groups = %v (%d)", groups.Kind, groups.Len())
	}
	cnt := phys(t, "Count", "PreCount")
	vec, err := cnt.Run(context.Background(), env, Args{}, []values.Value{groups})
	if err != nil {
		t.Fatal(err)
	}
	if vec.Kind != values.Vec || vec.Len() != groups.Len() {
		t.Fatalf("per-group count = %v", vec)
	}
	total := 0.0
	for _, e := range vec.VecVal {
		total += e.Num
	}
	if int(total) != groups.TotalDocs() {
		t.Errorf("counts sum %v != %d grouped docs", total, groups.TotalDocs())
	}
	// ArgMax over the vector.
	arg := phys(t, "Max", "PreArgMax")
	top, err := arg.Run(context.Background(), env, Args{}, []values.Value{vec})
	if err != nil {
		t.Fatal(err)
	}
	if top.Kind != values.Str || top.StrVal == "" {
		t.Fatalf("argmax = %v", top)
	}
}

func TestHashAndSortGroupByAgree(t *testing.T) {
	env, _ := testEnv(t, 80)
	h := phys(t, "GroupBy", "HashGroupBy")
	s := phys(t, "GroupBy", "SortGroupBy")
	in := []values.Value{allDocs(env)}
	gh, err1 := h.Run(context.Background(), env, Args{"Attribute": "year"}, in)
	gs, err2 := s.Run(context.Background(), env, Args{"Attribute": "year"}, in)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if gh.Len() != gs.Len() {
		t.Fatalf("hash %d groups vs sort %d", gh.Len(), gs.Len())
	}
	for i := range gh.GroupVal {
		if gh.GroupVal[i].Label != gs.GroupVal[i].Label ||
			len(gh.GroupVal[i].DocIDs) != len(gs.GroupVal[i].DocIDs) {
			t.Fatalf("group %d differs", i)
		}
	}
}

func TestPreAndLLMAggregatesAgree(t *testing.T) {
	env, _ := testEnv(t, 60)
	in := []values.Value{allDocs(env)}
	for _, kind := range []string{"Count", "Sum", "Average", "Max", "Min", "Median"} {
		pre := phys(t, kind, "Pre"+kind)
		sem := phys(t, kind, "Semantic"+kind)
		args := Args{"Field": "views"}
		a, err1 := pre.Run(context.Background(), env, args, in)
		b, err2 := sem.Run(context.Background(), env, args, in)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", kind, err1, err2)
		}
		if a.NumVal != b.NumVal {
			t.Errorf("%s: pre %v vs llm %v", kind, a.NumVal, b.NumVal)
		}
	}
	// Percentile with its rank argument.
	pre := phys(t, "Percentile", "PrePercentile")
	sem := phys(t, "Percentile", "SemanticPercentile")
	args := Args{"Field": "views", "Number": "90"}
	a, _ := pre.Run(context.Background(), env, args, in)
	b, _ := sem.Run(context.Background(), env, args, in)
	if a.NumVal != b.NumVal {
		t.Errorf("percentile: pre %v vs llm %v", a.NumVal, b.NumVal)
	}
}

func TestTopKAndOrderBy(t *testing.T) {
	env, ds := testEnv(t, 90)
	topk := phys(t, "TopK", "PreTopK")
	out, err := topk.Run(context.Background(), env, Args{"Number": "5", "Field": "views"}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("topk returned %d", out.Len())
	}
	best := 0
	for _, d := range ds.Docs {
		if d.Hidden.Views > best {
			best = d.Hidden.Views
		}
	}
	d0, _ := env.Store.Doc(out.DocIDs[0])
	_ = d0
	if v, _ := fieldOf(env, out.DocIDs[0], "views"); int(v) != best {
		t.Errorf("top-1 views %v, want %d", v, best)
	}
	ob := phys(t, "OrderBy", "PreOrderBy")
	sorted, err := ob.Run(context.Background(), env, Args{"Field": "views", "Condition": "descending"}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	prev := 1 << 60
	for _, id := range sorted.DocIDs {
		v, _ := fieldOf(env, id, "views")
		if int(v) > prev {
			t.Fatal("OrderBy not descending")
		}
		prev = int(v)
	}
}

func TestSetOps(t *testing.T) {
	env, _ := testEnv(t, 10)
	a := values.NewDocs([]int{1, 2, 3, 4})
	b := values.NewDocs([]int{3, 4, 5})
	cases := map[string]int{"Union": 5, "Intersection": 2, "Complementary": 2}
	for op, want := range cases {
		p := phys(t, op, "Pre"+op)
		out, err := p.Run(context.Background(), env, Args{}, []values.Value{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != want {
			t.Errorf("%s = %d docs, want %d", op, out.Len(), want)
		}
	}
	// Label variants.
	la := values.NewLabels([]string{"football", "tennis"})
	lb := values.NewLabels([]string{"tennis", "golf"})
	p := phys(t, "Intersection", "PreIntersection")
	out, _ := p.Run(context.Background(), env, Args{}, []values.Value{la, lb})
	if out.String() != "tennis" {
		t.Errorf("label intersection = %q", out.String())
	}
}

func TestCompareAndCompute(t *testing.T) {
	env, _ := testEnv(t, 5)
	cmp := phys(t, "Compare", "NumericCompare")
	out, _ := cmp.Run(context.Background(), env, Args{}, []values.Value{values.NewNum(5), values.NewNum(3)})
	if out.StrVal != "first" {
		t.Errorf("compare = %q", out.StrVal)
	}
	cpt := phys(t, "Compute", "PreCompute")
	args := Args{"Entity": "{v1}", "Entity2": "{v2}", "Expression": "{v1} / {v2}"}
	out, err := cpt.Run(context.Background(), env, args, []values.Value{values.NewNum(10), values.NewNum(4)})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumVal != 2.5 {
		t.Errorf("compute = %v", out.NumVal)
	}
	// Vector ratio.
	va := values.NewVec([]values.LabeledNum{{Label: "a", Num: 4}, {Label: "b", Num: 9}})
	vb := values.NewVec([]values.LabeledNum{{Label: "a", Num: 2}, {Label: "b", Num: 3}, {Label: "c", Num: 1}})
	out, err = cpt.Run(context.Background(), env, args, []values.Value{va, vb})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || out.VecVal[0].Num != 2 || out.VecVal[1].Num != 3 {
		t.Errorf("vector ratio = %v", out.VecVal)
	}
}

func TestExtractAndClassify(t *testing.T) {
	env, ds := testEnv(t, 40)
	// Title of a single doc.
	pre := phys(t, "Extract", "PreExtract")
	out, err := pre.Run(context.Background(), env, Args{"Attribute": "title"}, []values.Value{values.NewDocs([]int{3})})
	if err != nil {
		t.Fatal(err)
	}
	if out.StrVal != ds.Docs[3].Title {
		t.Errorf("title = %q, want %q", out.StrVal, ds.Docs[3].Title)
	}
	// Distinct labels over docs.
	dv := phys(t, "Extract", "SemanticDistinct")
	out, err = dv.Run(context.Background(), env, Args{"Attribute": "sport"}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != values.Labels || out.Len() < 3 {
		t.Errorf("distinct = %v", out)
	}
	// Classify a single doc.
	cl := phys(t, "Classify", "SemanticClassify")
	out, err = cl.Run(context.Background(), env, Args{"Attribute": "sport"}, []values.Value{values.NewDocs([]int{0})})
	if err != nil {
		t.Fatal(err)
	}
	if out.StrVal != ds.Docs[0].Hidden.Category {
		t.Logf("classify = %q vs hidden %q (text ambiguity possible)", out.StrVal, ds.Docs[0].Hidden.Category)
	}
}

func TestGenerateFallback(t *testing.T) {
	env, _ := testEnv(t, 60)
	g := phys(t, "Generate", "Generate")
	out, err := g.Run(context.Background(), env, Args{"Condition": "How many questions are about football?"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != values.Str || out.StrVal == "" {
		t.Errorf("generate = %v", out)
	}
}

func TestGroupedFilterSubset(t *testing.T) {
	env, _ := testEnv(t, 150)
	g := phys(t, "GroupBy", "SemanticGroupBy")
	groups, err := g.Run(context.Background(), env, Args{"Attribute": "sport"}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	f := phys(t, "Filter", "SemanticFilter")
	out, err := f.Run(context.Background(), env, Args{"Condition": "involving a ball"}, []values.Value{groups})
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != values.Groups {
		t.Fatalf("subset filter output %v", out.Kind)
	}
	for _, gr := range out.GroupVal {
		switch gr.Label {
		case "swimming", "running", "cycling", "hockey":
			t.Errorf("non-ball sport %q survived the subset filter", gr.Label)
		}
	}
}

// TestCustomOperatorRegistration exercises the extensibility hook of
// §IV-B3: a new operator with its own logical representation and physical
// implementation.
func TestCustomOperatorRegistration(t *testing.T) {
	spec := &Spec{
		Name: "WordCount",
		LRs:  []string{"the number of words in [Entity]"},
		Phys: []*Physical{{
			Name: "PreWordCount",
			Adequate: func(_ Args, inputs []values.Value) bool {
				return len(inputs) >= 1 && inputs[0].Kind == values.Docs
			},
			Run: func(_ context.Context, env *Env, _ Args, inputs []values.Value) (values.Value, error) {
				total := 0
				for _, id := range inputs[0].DocIDs {
					text, err := docText(env, id)
					if err != nil {
						return values.Value{}, err
					}
					total += len(strings.Fields(text))
				}
				return values.NewNum(float64(total)), nil
			},
		}},
	}
	if err := Register(spec); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := Unregister("WordCount"); err != nil {
			t.Fatal(err)
		}
	}()
	got, ok := Get("WordCount")
	if !ok || got.Template(spec.LRs[0]) == nil {
		t.Fatal("custom operator not retrievable")
	}
	env, _ := testEnv(t, 10)
	out, err := got.Phys[0].Run(context.Background(), env, Args{}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumVal <= 0 {
		t.Errorf("word count = %v", out.NumVal)
	}
	// Invalid registrations are rejected.
	if err := Register(spec); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(&Spec{Name: "X"}); err == nil {
		t.Error("spec without LRs accepted")
	}
	if err := Unregister("Filter"); err == nil {
		t.Error("built-in unregistered")
	}
}

func TestSemanticArgMaxMatchesPre(t *testing.T) {
	env, _ := testEnv(t, 5)
	vec := values.NewVec([]values.LabeledNum{
		{Label: "a", Num: 3}, {Label: "b", Num: 9}, {Label: "c", Num: 5},
	})
	for _, kind := range []string{"Max", "Min"} {
		pre := phys(t, kind, "PreArg"+kind)
		sem := phys(t, kind, "SemanticArg"+kind)
		a, err1 := pre.Run(context.Background(), env, Args{}, []values.Value{vec})
		b, err2 := sem.Run(context.Background(), env, Args{}, []values.Value{vec})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", kind, err1, err2)
		}
		if a.StrVal != b.StrVal {
			t.Errorf("%s: pre %q vs semantic %q", kind, a.StrVal, b.StrVal)
		}
	}
	// Empty vector errors.
	pre := phys(t, "Max", "PreArgMax")
	if _, err := pre.Run(context.Background(), env, Args{}, []values.Value{values.NewVec(nil)}); err == nil {
		t.Error("empty-vector argmax accepted")
	}
}

func TestSemanticOrderByAndTopKMatchPre(t *testing.T) {
	env, _ := testEnv(t, 50)
	in := []values.Value{allDocs(env)}
	args := Args{"Field": "views", "Condition": "descending", "Number": "7"}
	preS, _ := phys(t, "OrderBy", "PreOrderBy").Run(context.Background(), env, args, in)
	semS, err := phys(t, "OrderBy", "SemanticOrderBy").Run(context.Background(), env, args, in)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(preS.DocIDs) != fmt.Sprint(semS.DocIDs) {
		t.Error("semantic sort disagrees with pre-programmed sort")
	}
	preK, _ := phys(t, "TopK", "PreTopK").Run(context.Background(), env, args, in)
	semK, err := phys(t, "TopK", "SemanticTopK").Run(context.Background(), env, args, in)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(preK.DocIDs) != fmt.Sprint(semK.DocIDs) {
		t.Error("semantic top-k disagrees with pre-programmed top-k")
	}
}

func TestSemanticSetOpsAndJoin(t *testing.T) {
	env, _ := testEnv(t, 5)
	a := values.NewLabels([]string{"football", "tennis", "golf"})
	b := values.NewLabels([]string{"tennis", "golf", "rugby"})
	sem := phys(t, "Intersection", "SemanticIntersection")
	out, err := sem.Run(context.Background(), env, Args{}, []values.Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "golf, tennis" {
		t.Errorf("semantic intersection = %q", out.String())
	}
	join := phys(t, "Join", "SemanticJoin")
	out, err = join.Run(context.Background(), env, Args{}, []values.Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("semantic join empty")
	}
	keyJoin := phys(t, "Join", "KeyJoin")
	out2, err := keyJoin.Run(context.Background(), env, Args{}, []values.Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if out2.String() != "golf, tennis" {
		t.Errorf("key join = %q", out2.String())
	}
}

func TestSemanticCompareAndCompute(t *testing.T) {
	env, _ := testEnv(t, 5)
	cmp := phys(t, "Compare", "SemanticCompare")
	out, err := cmp.Run(context.Background(), env, Args{}, []values.Value{values.NewNum(2), values.NewNum(8)})
	if err != nil {
		t.Fatal(err)
	}
	if out.StrVal != "second" {
		t.Errorf("semantic compare = %q", out.StrVal)
	}
	cpt := phys(t, "Compute", "SemanticCompute")
	args := Args{"Entity": "{v1}", "Entity2": "{v2}", "Expression": "{v1} / {v2}"}
	out, err = cpt.Run(context.Background(), env, args, []values.Value{values.NewNum(9), values.NewNum(3)})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumVal != 3 {
		t.Errorf("semantic compute = %v", out.NumVal)
	}
}

func TestKeywordFilterAndRuleClassify(t *testing.T) {
	env, ds := testEnv(t, 100)
	kw := phys(t, "Filter", "KeywordFilter")
	args := Args{"Condition": "related to football", "_keyword": "1"}
	out, err := kw.Run(context.Background(), env, args, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	// Keyword matching has lower recall than semantic matching: every hit
	// must literally contain "football".
	sem, _ := phys(t, "Filter", "SemanticFilter").Run(context.Background(), env,
		Args{"Condition": "related to football"}, []values.Value{allDocs(env)})
	if out.Len() > sem.Len() {
		t.Errorf("keyword filter (%d) above semantic (%d)", out.Len(), sem.Len())
	}
	_ = ds
	rc := phys(t, "Classify", "RuleClassify")
	rcArgs := Args{"Attribute": "sport", "_rule": "1"}
	v, err := rc.Run(context.Background(), env, rcArgs, []values.Value{values.NewDocs([]int{0})})
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != values.Str {
		t.Errorf("rule classify kind %v", v.Kind)
	}
	rd := phys(t, "Extract", "RuleDistinct")
	v, err = rd.Run(context.Background(), env, rcArgs, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != values.Labels {
		t.Errorf("rule distinct kind %v", v.Kind)
	}
}

func TestRawIndexScan(t *testing.T) {
	env, _ := testEnv(t, 200)
	sc := phys(t, "Scan", "IndexScan")
	args := Args{"Condition": "related to golf", "_scanK": "30", "_raw": "1"}
	out, err := sc.Run(context.Background(), env, args, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 || out.Len() > 30 {
		t.Errorf("raw index scan returned %d candidates", out.Len())
	}
	// Without the explicit raw flag the unverified scan is inadequate.
	if sc.Adequate(Args{"Condition": "related to golf", "_scanK": "30"}, []values.Value{allDocs(env)}) {
		t.Error("raw IndexScan adequate without _raw")
	}
}

func TestLinearScanPassThrough(t *testing.T) {
	env, _ := testEnv(t, 20)
	ls := phys(t, "Scan", "LinearScan")
	if ls.Adequate(Args{"Condition": "related to golf"}, []values.Value{allDocs(env)}) {
		t.Error("bare LinearScan adequate despite a pending condition")
	}
	out, err := ls.Run(context.Background(), env, Args{}, []values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 20 {
		t.Errorf("scan returned %d docs", out.Len())
	}
}

func TestGroupedLLMAggregates(t *testing.T) {
	env, _ := testEnv(t, 80)
	g, _ := phys(t, "GroupBy", "SemanticGroupBy").Run(context.Background(), env,
		Args{"Attribute": "sport"}, []values.Value{allDocs(env)})
	pre, _ := phys(t, "Average", "PreAverage").Run(context.Background(), env,
		Args{"Field": "views"}, []values.Value{g})
	sem, err := phys(t, "Average", "SemanticAverage").Run(context.Background(), env,
		Args{"Field": "views"}, []values.Value{g})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pre.VecVal) != fmt.Sprint(sem.VecVal) {
		t.Errorf("grouped averages disagree:\n%v\n%v", pre.VecVal, sem.VecVal)
	}
}

func TestAdequacyRejectsWrongKinds(t *testing.T) {
	env, _ := testEnv(t, 5)
	num := values.NewNum(1)
	cases := []struct{ op, phys string }{
		{"Filter", "SemanticFilter"},
		{"GroupBy", "SemanticGroupBy"},
		{"Count", "PreCount"},
		{"TopK", "PreTopK"},
		{"OrderBy", "PreOrderBy"},
	}
	for _, c := range cases {
		p := phys(t, c.op, c.phys)
		if p.Adequate(Args{"Number": "3"}, []values.Value{num}) {
			t.Errorf("%s/%s adequate for a scalar input", c.op, c.phys)
		}
	}
	_ = env
}

func TestFilterErrorsOnScalar(t *testing.T) {
	env, _ := testEnv(t, 5)
	p := phys(t, "Filter", "ExactFilter")
	if _, err := p.Run(context.Background(), env, Args{"Condition": "with more than 1 views"},
		[]values.Value{values.NewNum(3)}); err == nil {
		t.Error("filtering a scalar accepted")
	}
}

func TestPreComputeErrors(t *testing.T) {
	env, _ := testEnv(t, 5)
	p := phys(t, "Compute", "PreCompute")
	args := Args{"Entity": "{v1}", "Entity2": "{v2}", "Expression": "{v1} / {v2}"}
	if _, err := p.Run(context.Background(), env, args,
		[]values.Value{values.NewNum(1), values.NewNum(0)}); err == nil {
		t.Error("division by zero accepted")
	}
}

func TestSpecHelpers(t *testing.T) {
	spec, _ := Get("Filter")
	if spec.Template("[Entity] that [Condition]") == nil {
		t.Error("template lookup failed")
	}
	if spec.Template("no such lr") != nil {
		t.Error("ghost template found")
	}
	if len(Names()) == 0 || len(All()) != len(Names()) {
		t.Error("registry enumeration inconsistent")
	}
}

func TestArgsHelpers(t *testing.T) {
	a := Args{"Number": " 42 ", "Entity": "x"}
	if v, ok := a.Int("Number"); !ok || v != 42 {
		t.Errorf("Int = %d, %v", v, ok)
	}
	if _, ok := a.Int("Entity"); ok {
		t.Error("non-numeric Int accepted")
	}
	if a.Get("missing") != "" {
		t.Error("missing key not empty")
	}
}

func TestPercentileNumberRequired(t *testing.T) {
	env, _ := testEnv(t, 30)
	p := phys(t, "Percentile", "PrePercentile")
	out, err := p.Run(context.Background(), env, Args{"Field": "views", "Number": "50"},
		[]values.Value{allDocs(env)})
	if err != nil {
		t.Fatal(err)
	}
	med, _ := phys(t, "Median", "PreMedian").Run(context.Background(), env,
		Args{"Field": "views"}, []values.Value{allDocs(env)})
	// The 50th percentile and median use slightly different index rules
	// but must be close.
	if out.NumVal <= 0 || med.NumVal <= 0 {
		t.Errorf("percentile %v median %v", out.NumVal, med.NumVal)
	}
}

// breakCall lets the wrapped model answer every call but the nth (from 0),
// which fails with err or, when err is nil, loses its last value.
type breakCall struct {
	llm.Client
	n, seen int
	err     error
}

func (b *breakCall) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	b.seen++
	if b.seen-1 != b.n {
		return b.Client.Complete(ctx, prompt)
	}
	if b.err != nil {
		return llm.Response{}, b.err
	}
	resp, err := b.Client.Complete(ctx, prompt)
	resp.Text = resp.Text[:strings.LastIndex(resp.Text, ",")]
	return resp, err
}

// TestPerDocFailureShapes pins the shared per-document loop's two failure
// shapes for each task family: a failed call, and a reply that does not
// hold one value per document. Under a budget the chunk's documents are
// skipped and the rest still answer; without one the operator fails —
// except extract_batch, whose short replies are spliced in positionally.
func TestPerDocFailureShapes(t *testing.T) {
	boom := fmt.Errorf("model unreachable")
	const docs, bs, broken = 40, 16, 1 // three chunks; the middle one breaks
	type outcome struct {
		valued int // documents that came back with a value
		err    error
	}
	families := []struct {
		task string
		run  func(env *Env, ids []int) outcome
		// short is the ErrBadOutput message of a reply one value short;
		// "" when the family tolerates it.
		short string
	}{
		{"filter_batch", func(env *Env, ids []int) outcome {
			// Every document has views, so each verdict is a yes.
			kept, err := batchJudge(context.Background(), env, "with more than 0 views", ids)
			return outcome{len(kept), err}
		}, "filter_batch returned 15 verdicts for 16 documents"},
		{"classify_batch", func(env *Env, ids []int) outcome {
			labels, err := batchClassify(context.Background(), env, "sport", ids)
			return outcome{len(labels), err}
		}, "classify_batch returned 15 labels for 16 documents"},
		{"extract_batch", func(env *Env, ids []int) outcome {
			vals, err := llmFieldValues(context.Background(), env, "views", ids)
			return outcome{len(vals), err}
		}, ""},
	}
	for _, fam := range families {
		for _, shape := range []struct {
			name string
			err  error
		}{{"call error", boom}, {"short reply", nil}} {
			for _, budget := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/%s/budget %d", fam.task, shape.name, budget), func(t *testing.T) {
					env, _ := testEnv(t, docs)
					env.BatchSize = bs
					env.Client = &breakCall{Client: env.Client, n: broken, err: shape.err}
					env.Budget = NewFaultBudget(budget)
					ids := env.Store.IDs()
					clean, _ := testEnv(t, docs)
					want := fam.run(clean, ids).valued
					if want != docs {
						t.Fatalf("clean run valued %d of %d documents", want, docs)
					}
					got := fam.run(env, ids)

					tolerated := shape.err == nil && fam.short == ""
					switch {
					case tolerated:
						// The short reply's 15 values all reach the aggregate.
						if got.err != nil || got.valued != want-1 || env.Budget.Skipped() != 0 {
							t.Fatalf("valued %d (clean %d), skipped %d, err %v; want the reply spliced in",
								got.valued, want, env.Budget.Skipped(), got.err)
						}
					case budget == 0:
						if shape.err != nil && !errors.Is(got.err, boom) {
							t.Fatalf("err = %v, want the call's error", got.err)
						}
						if shape.err == nil && (!errors.Is(got.err, ErrBadOutput) || !strings.HasSuffix(got.err.Error(), fam.short)) {
							t.Fatalf("err = %v, want ErrBadOutput: %s", got.err, fam.short)
						}
					default:
						if got.err != nil || env.Budget.Skipped() != bs || got.valued != want-bs {
							t.Fatalf("valued %d (clean %d), skipped %d, err %v; want one chunk of %d absorbed",
								got.valued, want, env.Budget.Skipped(), got.err, bs)
						}
					}
				})
			}
		}
	}
}
