package ops

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"unify/internal/llm"
	"unify/internal/nlcond"
	"unify/internal/values"
	"unify/internal/views"
)

// This file implements the LLM-based ("semantic") physical operators of
// the paper's §IV-B2: every semantic judgment happens through a prompt to
// env.Client, batched when possible, so call counts and token volumes —
// and therefore the cost model and the virtual clock — reflect real
// execution patterns.

func complete(ctx context.Context, env *Env, task string, fields ...llm.Field) (llm.Response, error) {
	return llm.Do(ctx, env.Client, llm.NewRequest(task, fields...))
}

// viewLookup partitions ids into materialized-view hits, whose stored
// values (served only under a matching live content hash) it writes to
// vals, and the misses that still need model work, which it returns. With
// views disabled every id is a miss.
func viewLookup(env *Env, col string, ids []int, vals map[int]string) []int {
	if env.Views == nil {
		return ids
	}
	misses := make([]int, 0, len(ids))
	for _, id := range ids {
		h, ok := env.Store.ContentHash(id)
		if !ok {
			misses = append(misses, id)
			continue
		}
		if v, ok := env.Views.Get(col, id, h); ok {
			vals[id] = v
			env.viewHits++
		} else {
			misses = append(misses, id)
		}
	}
	return misses
}

// viewPut backfills one computed per-document result into its column,
// stamped with the document's live content hash.
func viewPut(env *Env, col string, id int, val string) {
	if env.Views == nil {
		return
	}
	if h, ok := env.Store.ContentHash(id); ok {
		env.Views.Put(col, id, h, val)
	}
}

// perDoc is the one per-document judgment loop behind the three batched
// task families (filter_batch, classify_batch, extract_batch). It writes
// one value per document of ids to vals, the caller's map (a map that is
// only read where it was made does not escape to the heap). Values already
// materialized in the view
// column col (under the document's live content hash) skip the model
// entirely; the misses are prompted in input order, env.batch() documents
// a call, each call carrying the field name=value beside the documents,
// and a reply holding one comma-separated value per document is split and
// backfilled into the column. The sim's judgments are per-document
// deterministic (independent of batch composition), so a view hit is
// answer-equivalent to recomputation.
//
// A chunk whose call fails is absorbed by the node's error budget — its
// documents get no value — or fails the operator. A reply of any other
// length goes to misaligned: the error it returns is absorbed or returned
// the same way, and nil means the caller has dealt with the chunk.
func perDoc(ctx context.Context, env *Env, task, name, value, col string, ids []int, vals map[int]string,
	misaligned func(chunk []int, parts []string) error) error {
	misses := viewLookup(env, col, ids, vals)
	ask := func(chunk []int, texts []string) ([]string, error) {
		resp, err := complete(ctx, env, task, llm.Text(name, value), llm.Docs("docs", texts))
		if err != nil {
			return nil, err
		}
		parts := strings.Split(resp.Text, ",")
		if len(parts) != len(chunk) {
			return nil, misaligned(chunk, parts)
		}
		return parts, nil
	}
	bs := env.batch()
	for start := 0; start < len(misses); start += bs {
		chunk := misses[start:min(start+bs, len(misses))]
		texts := make([]string, len(chunk))
		for i, id := range chunk {
			t, err := docText(env, id)
			if err != nil {
				return err
			}
			texts[i] = t
		}
		parts, err := ask(chunk, texts)
		if err != nil {
			if ctx.Err() == nil && env.Budget.Absorb(len(chunk)) {
				continue // degrade: the chunk's documents stay without a value
			}
			return err
		}
		for i, v := range parts {
			v = strings.TrimSpace(v)
			vals[chunk[i]] = v
			viewPut(env, col, chunk[i], v)
		}
	}
	return nil
}

// batchJudge filters document ids by a condition: one filter_batch
// verdict per document, kept in the condition's view column.
func batchJudge(ctx context.Context, env *Env, cond string, ids []int) ([]int, error) {
	verdicts := make(map[int]string, len(ids))
	err := perDoc(ctx, env, "filter_batch", "condition", cond, views.FilterColumn(cond), ids, verdicts,
		func(chunk []int, got []string) error {
			return fmt.Errorf("%w: filter_batch returned %d verdicts for %d documents", ErrBadOutput, len(got), len(chunk))
		})
	if err != nil {
		return nil, err
	}
	// Assemble in input order; ids from dropped (budget-absorbed)
	// chunks have no verdict and are skipped.
	var out []int
	for _, id := range ids {
		if verdicts[id] == "yes" {
			out = append(out, id)
		}
	}
	return out, nil
}

// physSemanticFilter evaluates any condition by prompting the model per
// batched document chunk. Subset conditions on grouped inputs filter the
// group labels with one prompt per group.
func physSemanticFilter() *Physical {
	return &Physical{
		Name:     "SemanticFilter",
		LLMBased: true,
		Adequate: wantDocsOrGroups,
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			cond := args.Get("Condition")
			in := inputs[0]
			if in.Kind == values.Docs {
				ids, err := batchJudge(ctx, env, cond, in.DocIDs)
				if err != nil {
					return values.Value{}, err
				}
				return values.NewDocs(ids), nil
			}
			// Grouped input.
			if c, ok := nlcond.Parse(cond); ok && c.Kind == nlcond.Subset {
				var groups []values.Group
				for _, g := range in.GroupVal {
					resp, err := complete(ctx, env, "filter_label",
						llm.Text("condition", cond),
						llm.Text("label", g.Label),
					)
					if err != nil {
						return values.Value{}, err
					}
					if strings.TrimSpace(resp.Text) == "yes" {
						groups = append(groups, g)
					}
				}
				return values.NewGroups(groups), nil
			}
			groups := make([]values.Group, 0, len(in.GroupVal))
			for _, g := range in.GroupVal {
				sub, err := batchJudge(ctx, env, cond, g.DocIDs)
				if err != nil {
					return values.Value{}, err
				}
				groups = append(groups, values.Group{Label: g.Label, DocIDs: sub})
			}
			return values.NewGroups(groups), nil
		},
	}
}

// physIndexFilter is the IndexScan-accelerated semantic filter: a vector
// search shortlists candidates near the condition's embedding; only the
// shortlist is verified by the model. The optimizer sets _scanK from the
// cardinality estimate.
func physIndexFilter() *Physical {
	return &Physical{
		Name:     "IndexFilter",
		LLMBased: true,
		Adequate: func(args Args, inputs []values.Value) bool {
			_, hasK := args.Int("_scanK")
			if !hasK || len(inputs) < 1 || inputs[0].Kind != values.Docs {
				return false
			}
			c, ok := parseCond(args)
			return ok && !c.Structured()
		},
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			k, _ := args.Int("_scanK")
			in := make(map[int]bool, len(inputs[0].DocIDs))
			for _, id := range inputs[0].DocIDs {
				in[id] = true
			}
			cond := args.Get("Condition")
			var ids []int
			verified := map[int]bool{}
			// Adaptive extension: if the tail of the shortlist still
			// yields matches, the cardinality estimate was low — double
			// the scan until the yield dries up (or the scan covers the
			// input, at which point a full semantic filter has run).
			for {
				res := env.Store.SearchDocs(cond, k)
				var fresh []int
				for _, r := range res {
					if in[r.ID] && !verified[r.ID] {
						verified[r.ID] = true
						fresh = append(fresh, r.ID)
					}
				}
				sort.Ints(fresh)
				hit, err := batchJudge(ctx, env, cond, fresh)
				if err != nil {
					return values.Value{}, err
				}
				ids = append(ids, hit...)
				if len(verified) >= len(inputs[0].DocIDs) {
					break
				}
				// Matches dried up: two percent yield or a fully empty
				// round ends the extension.
				if len(fresh) > 0 && float64(len(hit)) < 0.02*float64(len(fresh)) {
					break
				}
				if len(fresh) == 0 {
					break
				}
				k *= 2
			}
			sort.Ints(ids)
			return values.NewDocs(ids), nil
		},
	}
}

// batchClassify labels documents: one classify_batch label per document,
// kept in the class word's view column. Documents of dropped chunks stay
// unlabeled.
func batchClassify(ctx context.Context, env *Env, classWord string, ids []int) (map[int]string, error) {
	labels := make(map[int]string, len(ids))
	err := perDoc(ctx, env, "classify_batch", "class", classWord, views.ClassifyColumn(classWord), ids, labels,
		func(chunk []int, got []string) error {
			return fmt.Errorf("%w: classify_batch returned %d labels for %d documents", ErrBadOutput, len(got), len(chunk))
		})
	if err != nil {
		return nil, err
	}
	return labels, nil
}

func physSemanticGroupBy() *Physical {
	return &Physical{
		Name:     "SemanticGroupBy",
		LLMBased: true,
		Adequate: func(_ Args, inputs []values.Value) bool {
			return len(inputs) >= 1 && inputs[0].Kind == values.Docs
		},
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			labels, err := batchClassify(ctx, env, args.Get("Attribute"), inputs[0].DocIDs)
			if err != nil {
				return values.Value{}, err
			}
			buckets := map[string][]int{}
			for _, id := range inputs[0].DocIDs {
				if l := labels[id]; l != "" && l != "unknown" {
					buckets[l] = append(buckets[l], id)
				}
			}
			groups := make([]values.Group, 0, len(buckets))
			for label, members := range buckets {
				sort.Ints(members)
				groups = append(groups, values.Group{Label: label, DocIDs: members})
			}
			return values.NewGroups(groups), nil
		},
	}
}

// llmFieldValues extracts the aggregate field of each document via the
// model (the LLM-based extraction path of the aggregate operators).
// Per-document values are materialized in the field's view column when
// the model's output aligns one value per document; unaligned responses
// flow to the aggregate positionally and skip the view, since their
// values cannot be attributed to a document.
func llmFieldValues(ctx context.Context, env *Env, field string, ids []int) ([]float64, error) {
	// loose holds the parsed values of unaligned chunks, keyed by the
	// chunk's first id so assembly can splice them in input position.
	var loose map[int][]float64
	vals := make(map[int]string, len(ids))
	err := perDoc(ctx, env, "extract_batch", "target", field, views.ExtractColumn(field), ids, vals,
		func(chunk []int, parts []string) error {
			var fs []float64
			for _, part := range parts {
				if v, err := strconv.ParseFloat(strings.TrimSpace(part), 64); err == nil {
					fs = append(fs, v)
				}
			}
			if loose == nil {
				loose = make(map[int][]float64)
			}
			loose[chunk[0]] = fs
			return nil
		})
	if err != nil {
		return nil, err
	}
	// Assemble in input order. Unparseable per-document values (e.g.
	// "unknown") drop out here, as they drop out of the positional parse.
	var out []float64
	for _, id := range ids {
		if fs, ok := loose[id]; ok {
			out = append(out, fs...)
			continue
		}
		if s, ok := vals[id]; ok {
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				out = append(out, v)
			}
		}
	}
	return out, nil
}

// physLLMAgg implements the "semantic aggregation" column of Table II:
// values are extracted by the model, then reduced with one aggregation
// prompt.
func physLLMAgg(kind string) *Physical {
	return &Physical{
		Name:     "Semantic" + kind,
		LLMBased: true,
		Adequate: wantDocsOrGroups,
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			p, _ := args.Int("Number")
			field := aggField(args)
			aggKind := strings.ToLower(kind)
			if kind == "Percentile" {
				aggKind = "percentile:" + strconv.Itoa(p)
			}
			agg := func(ids []int) (float64, error) {
				var lines []string
				if kind == "Count" {
					for range ids {
						lines = append(lines, "1")
					}
				} else {
					vals, err := llmFieldValues(ctx, env, field, ids)
					if err != nil {
						return 0, err
					}
					for _, v := range vals {
						lines = append(lines, strconv.FormatFloat(v, 'f', -1, 64))
					}
				}
				resp, err := complete(ctx, env, "agg_list",
					llm.Text("kind", aggKind),
					llm.Text("values", strings.Join(lines, "\n")),
				)
				if err != nil {
					return 0, err
				}
				return strconv.ParseFloat(strings.TrimSpace(resp.Text), 64)
			}
			switch in := inputs[0]; in.Kind {
			case values.Docs:
				v, err := agg(in.DocIDs)
				if err != nil {
					return values.Value{}, err
				}
				return values.NewNum(v), nil
			case values.Groups:
				vec := make([]values.LabeledNum, 0, len(in.GroupVal))
				for _, g := range in.GroupVal {
					v, err := agg(g.DocIDs)
					if err != nil {
						return values.Value{}, err
					}
					vec = append(vec, values.LabeledNum{Label: g.Label, Num: v})
				}
				return values.NewVec(vec), nil
			default:
				return values.Value{}, fmt.Errorf("ops: %s over %s value", kind, in.Kind)
			}
		},
	}
}

// physLLMArg resolves the extreme entry of a labeled vector via a chain
// of pairwise comparison prompts (semantic max/min).
func physLLMArg(kind string) *Physical {
	return &Physical{
		Name:     "SemanticArg" + kind,
		LLMBased: true,
		Adequate: func(_ Args, inputs []values.Value) bool {
			return len(inputs) >= 1 && inputs[0].Kind == values.Vec
		},
		Run: func(ctx context.Context, env *Env, _ Args, inputs []values.Value) (values.Value, error) {
			vec := inputs[0].VecVal
			if len(vec) == 0 {
				return values.Value{}, fmt.Errorf("ops: %s over empty vector", kind)
			}
			best := vec[0]
			for _, e := range vec[1:] {
				resp, err := complete(ctx, env, "compare_vals",
					llm.Text("a", strconv.FormatFloat(best.Num, 'f', -1, 64)),
					llm.Text("b", strconv.FormatFloat(e.Num, 'f', -1, 64)),
				)
				if err != nil {
					return values.Value{}, err
				}
				first := strings.TrimSpace(resp.Text) == "first"
				if (kind == "Max" && !first) || (kind == "Min" && first) {
					best = e
				}
			}
			return values.NewStr(best.Label), nil
		},
	}
}

// rankByField orders ids by their model-extracted aggregate field,
// ascending or descending as the arguments ask, ties by id. what names the
// operation in the error raised when the model does not return one key per
// document.
func rankByField(ctx context.Context, env *Env, args Args, ids []int, what string) ([]int, error) {
	vals, err := llmFieldValues(ctx, env, aggField(args), ids)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(ids) {
		return nil, fmt.Errorf("%w: semantic %s extracted %d keys for %d documents", ErrBadOutput, what, len(vals), len(ids))
	}
	type kv struct {
		id int
		v  float64
	}
	pairs := make([]kv, len(ids))
	for i := range ids {
		pairs[i] = kv{ids[i], vals[i]}
	}
	desc := isDesc(args)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			if desc {
				return pairs[i].v > pairs[j].v
			}
			return pairs[i].v < pairs[j].v
		}
		return pairs[i].id < pairs[j].id
	})
	out := make([]int, len(pairs))
	for i, p := range pairs {
		out[i] = p.id
	}
	return out, nil
}

func physLLMOrderBy() *Physical {
	return &Physical{
		Name:     "SemanticOrderBy",
		LLMBased: true,
		Adequate: func(_ Args, inputs []values.Value) bool {
			return len(inputs) >= 1 && inputs[0].Kind == values.Docs
		},
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			out, err := rankByField(ctx, env, args, inputs[0].DocIDs, "sort")
			if err != nil {
				return values.Value{}, err
			}
			return values.Value{Kind: values.Docs, DocIDs: out}, nil
		},
	}
}

func physSemanticClassify() *Physical {
	return &Physical{
		Name:     "SemanticClassify",
		LLMBased: true,
		Adequate: func(_ Args, inputs []values.Value) bool {
			return len(inputs) >= 1 && inputs[0].Kind == values.Docs && len(inputs[0].DocIDs) >= 1
		},
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			text, err := docText(env, inputs[0].DocIDs[0])
			if err != nil {
				return values.Value{}, err
			}
			resp, err := complete(ctx, env, "classify_doc",
				llm.Text("class", args.Get("Attribute")),
				llm.Text("doc", text),
			)
			if err != nil {
				return values.Value{}, err
			}
			return values.NewStr(strings.TrimSpace(resp.Text)), nil
		},
	}
}

func physLLMExtract() *Physical {
	return &Physical{
		Name:     "SemanticExtract",
		LLMBased: true,
		Adequate: func(args Args, inputs []values.Value) bool {
			if len(inputs) < 1 || inputs[0].Kind != values.Docs || len(inputs[0].DocIDs) < 1 {
				return false
			}
			// Class-valued extraction over a multi-document list means
			// distinct values, which SemanticDistinct handles.
			return !classAttr(args.Get("Attribute")) || len(inputs[0].DocIDs) == 1
		},
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			text, err := docText(env, inputs[0].DocIDs[0])
			if err != nil {
				return values.Value{}, err
			}
			target := strings.ToLower(args.Get("Attribute"))
			resp, err := complete(ctx, env, "extract_doc",
				llm.Text("target", target),
				llm.Text("doc", text),
			)
			if err != nil {
				return values.Value{}, err
			}
			out := strings.TrimSpace(resp.Text)
			if v, err := strconv.ParseFloat(out, 64); err == nil && target != "title" {
				return values.NewNum(v), nil
			}
			return values.NewStr(out), nil
		},
	}
}

// classAttr reports whether the attribute names a concept class (rather
// than a structural field like "title" or "views").
func classAttr(attr string) bool {
	switch strings.ToLower(strings.TrimSpace(attr)) {
	case "sport", "field", "area", "category", "topic":
		return true
	}
	return false
}

// physDistinctValues implements semantic distinct-value extraction over a
// document list ("the distinct sports of ..."): classify every document,
// deduplicate the labels.
func physDistinctValues() *Physical {
	return &Physical{
		Name:     "SemanticDistinct",
		LLMBased: true,
		Adequate: func(args Args, inputs []values.Value) bool {
			return classAttr(args.Get("Attribute")) &&
				len(inputs) >= 1 && inputs[0].Kind == values.Docs
		},
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			labels, err := batchClassify(ctx, env, args.Get("Attribute"), inputs[0].DocIDs)
			if err != nil {
				return values.Value{}, err
			}
			seen := map[string]bool{}
			var out []string
			for _, id := range inputs[0].DocIDs {
				if l := labels[id]; l != "" && l != "unknown" && !seen[l] {
					seen[l] = true
					out = append(out, l)
				}
			}
			return values.NewLabels(out), nil
		},
	}
}

func physLLMTopK() *Physical {
	return &Physical{
		Name:     "SemanticTopK",
		LLMBased: true,
		Adequate: func(args Args, inputs []values.Value) bool {
			_, hasK := args.Int("Number")
			return hasK && len(inputs) >= 1 && inputs[0].Kind == values.Docs
		},
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			k, _ := args.Int("Number")
			out, err := rankByField(ctx, env, args, inputs[0].DocIDs, "ranking")
			if err != nil {
				return values.Value{}, err
			}
			k = min(k, len(out))
			return values.Value{Kind: values.Docs, DocIDs: out[:k:k]}, nil
		},
	}
}

func physSemanticJoin() *Physical {
	return &Physical{
		Name:     "SemanticJoin",
		LLMBased: true,
		Adequate: func(_ Args, inputs []values.Value) bool {
			return len(inputs) >= 2 &&
				(inputs[0].Kind == values.Labels || inputs[0].Kind == values.Vec) &&
				(inputs[1].Kind == values.Labels || inputs[1].Kind == values.Vec)
		},
		Run: func(ctx context.Context, env *Env, _ Args, inputs []values.Value) (values.Value, error) {
			al, bl := labelList(inputs[0]), labelList(inputs[1])
			var out []string
			for _, a := range al {
				for _, b := range bl {
					resp, err := complete(ctx, env, "filter_label",
						llm.Text("condition", "related to "+b),
						llm.Text("label", a),
					)
					if err != nil {
						return values.Value{}, err
					}
					if strings.TrimSpace(resp.Text) == "yes" {
						out = append(out, a)
						break
					}
				}
			}
			sort.Strings(out)
			return values.NewLabels(out), nil
		},
	}
}

// physSetOp builds the pre-programmed or semantic variant of a set
// operation. The semantic variant canonicalizes labels through the model
// before the exact set algebra.
func physSetOp(op string, llmBased bool) *Physical {
	name := map[string]string{"union": "Union", "intersection": "Intersection", "complement": "Complementary"}[op]
	prefix := "Pre"
	if llmBased {
		prefix = "Semantic"
	}
	return &Physical{
		Name:     prefix + name,
		LLMBased: llmBased,
		Adequate: func(_ Args, inputs []values.Value) bool {
			if len(inputs) < 2 {
				return false
			}
			a, b := inputs[0], inputs[1]
			docs := a.Kind == values.Docs && b.Kind == values.Docs
			labels := (a.Kind == values.Labels || a.Kind == values.Vec) &&
				(b.Kind == values.Labels || b.Kind == values.Vec)
			return docs || labels
		},
		Run: func(ctx context.Context, env *Env, _ Args, inputs []values.Value) (values.Value, error) {
			a, b := inputs[0], inputs[1]
			if llmBased && a.Kind != values.Docs {
				// Canonicalize each label with one prompt.
				canon := func(ls []string) ([]string, error) {
					out := make([]string, len(ls))
					for i, l := range ls {
						resp, err := complete(ctx, env, "filter_label",
							llm.Text("condition", "related to "+l),
							llm.Text("label", l),
						)
						if err != nil {
							return nil, err
						}
						_ = resp
						out[i] = strings.ToLower(strings.TrimSpace(l))
					}
					return out, nil
				}
				al, err := canon(labelList(a))
				if err != nil {
					return values.Value{}, err
				}
				bl, err := canon(labelList(b))
				if err != nil {
					return values.Value{}, err
				}
				a, b = values.NewLabels(al), values.NewLabels(bl)
			}
			return setOpValues(op, a, b)
		},
	}
}

func physSemanticCompare() *Physical {
	return &Physical{
		Name:     "SemanticCompare",
		LLMBased: true,
		Adequate: func(_ Args, inputs []values.Value) bool {
			return len(inputs) >= 2 && inputs[0].Kind == values.Num && inputs[1].Kind == values.Num
		},
		Run: func(ctx context.Context, env *Env, _ Args, inputs []values.Value) (values.Value, error) {
			resp, err := complete(ctx, env, "compare_vals",
				llm.Text("a", strconv.FormatFloat(inputs[0].NumVal, 'f', -1, 64)),
				llm.Text("b", strconv.FormatFloat(inputs[1].NumVal, 'f', -1, 64)),
			)
			if err != nil {
				return values.Value{}, err
			}
			return values.NewStr(strings.TrimSpace(resp.Text)), nil
		},
	}
}

func physLLMCompute() *Physical {
	return &Physical{
		Name:     "SemanticCompute",
		LLMBased: true,
		Adequate: func(_ Args, inputs []values.Value) bool {
			return len(inputs) >= 2 && inputs[0].Kind == values.Num && inputs[1].Kind == values.Num
		},
		Run: func(ctx context.Context, env *Env, args Args, inputs []values.Value) (values.Value, error) {
			expression := args.Get("Expression")
			if expression == "" {
				expression = args.Get("Entity") + " / " + args.Get("Entity2")
			}
			bindings := fmt.Sprintf("%s=%v\n%s=%v",
				args.Get("Entity"), inputs[0].NumVal,
				args.Get("Entity2"), inputs[1].NumVal)
			resp, err := complete(ctx, env, "compute",
				llm.Text("expression", expression),
				llm.Text("bindings", bindings),
			)
			if err != nil {
				return values.Value{}, err
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(resp.Text), 64)
			if err != nil {
				return values.Value{}, fmt.Errorf("%w: SemanticCompute returned %q", ErrBadOutput, resp.Text)
			}
			return values.NewNum(v), nil
		},
	}
}

// physGenerate is the RAG fallback: retrieve context near the question and
// ask the model to answer from it.
func physGenerate() *Physical {
	return &Physical{
		Name:     "Generate",
		LLMBased: true,
		Adequate: func(args Args, _ []values.Value) bool {
			return args.Get("Condition") != ""
		},
		Run: func(ctx context.Context, env *Env, args Args, _ []values.Value) (values.Value, error) {
			question := args.Get("Condition")
			res := env.Store.SearchDocs(question, 40)
			texts := make([]string, len(res))
			for i, r := range res {
				t, err := docText(env, r.ID)
				if err != nil {
					return values.Value{}, err
				}
				texts[i] = t
			}
			resp, err := complete(ctx, env, "generate",
				llm.Text("question", question),
				llm.Docs("context", texts),
			)
			if err != nil {
				return values.Value{}, err
			}
			return values.NewStr(strings.TrimSpace(resp.Text)), nil
		},
	}
}
