package llm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"unify/internal/nlcond"
	"unify/internal/nlq"
)

// This file implements the free-form generation tasks: answering a query
// from a context window (the Generate operator and the RAG baselines),
// query decomposition (RecurRAG), one-shot plan generation (LLMPlan), and
// answer judging (Exhaust). The generator parses the question with the
// same comprehension grammar and evaluates it over ONLY the documents
// present in the prompt context — faithfully reproducing why RAG-style
// baselines fail on aggregates: the context never holds the whole corpus.

// genVal is the simulated model's internal value during evaluation.
type genVal struct {
	kind   string // "docs", "num", "vec", "groups", "labels", "str"
	docs   []string
	num    float64
	vec    map[string]float64
	groups map[string][]string
	labels []string
	str    string
}

func (s *Sim) handleGenerate(f map[string]string) (string, error) {
	docs := SplitDocs(f["context"])
	q, err := nlq.Parse(f["question"])
	if err != nil {
		return "unknown", nil
	}
	v, err := s.evalNode(q.Root, docs)
	if err != nil {
		return "unknown", nil
	}
	return formatGenVal(v), nil
}

func formatGenVal(v genVal) string {
	switch v.kind {
	case "num":
		return strconv.FormatFloat(v.num, 'f', -1, 64)
	case "str":
		return v.str
	case "labels":
		out := append([]string(nil), v.labels...)
		sort.Strings(out)
		return strings.Join(out, ", ")
	case "docs":
		titles := make([]string, 0, len(v.docs))
		for _, d := range v.docs {
			if m := reTitleLine.FindStringSubmatch(d); m != nil {
				titles = append(titles, strings.TrimSpace(m[1]))
			}
		}
		return strings.Join(titles, ", ")
	case "vec":
		keys := make([]string, 0, len(v.vec))
		for k := range v.vec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%g", k, v.vec[k])
		}
		return strings.Join(parts, ", ")
	default:
		return "unknown"
	}
}

func (s *Sim) evalNode(n *nlq.Node, docs []string) (genVal, error) {
	switch n.Kind {
	case "var":
		return genVal{}, fmt.Errorf("unbound variable %s", n.Ref)
	case "set":
		return s.evalSet(n, docs)
	case "group":
		base, err := s.evalNode(n.Over, docs)
		if err != nil || base.kind != "docs" {
			return genVal{}, fmt.Errorf("ungroupable operand")
		}
		groups := map[string][]string{}
		for _, d := range base.docs {
			label := s.classifyDoc(n.Class, d)
			if label != "unknown" {
				groups[label] = append(groups[label], d)
			}
		}
		return genVal{kind: "groups", groups: groups}, nil
	case "agg":
		return s.evalAgg(n, docs)
	case "ratio":
		a, errA := s.evalNode(n.A, docs)
		b, errB := s.evalNode(n.B, docs)
		if errA != nil || errB != nil {
			return genVal{}, fmt.Errorf("ratio operand error")
		}
		if a.kind == "num" && b.kind == "num" {
			if b.num == 0 {
				return genVal{}, fmt.Errorf("ratio division by zero")
			}
			return genVal{kind: "num", num: a.num / b.num}, nil
		}
		if a.kind == "vec" && b.kind == "vec" {
			out := map[string]float64{}
			for k, av := range a.vec {
				if bv, ok := b.vec[k]; ok && bv != 0 {
					out[k] = av / bv
				}
			}
			return genVal{kind: "vec", vec: out}, nil
		}
		return genVal{}, fmt.Errorf("ratio kind mismatch")
	case "compare":
		a, errA := s.evalNode(n.A, docs)
		b, errB := s.evalNode(n.B, docs)
		if errA != nil || errB != nil || a.kind != "num" || b.kind != "num" {
			return genVal{}, fmt.Errorf("compare operand error")
		}
		if a.num >= b.num {
			return genVal{kind: "str", str: "first"}, nil
		}
		return genVal{kind: "str", str: "second"}, nil
	case "setop":
		return s.evalSetOp(n, docs)
	case "labels":
		base, err := s.evalNode(n.Over, docs)
		if err != nil || base.kind != "docs" {
			return genVal{}, fmt.Errorf("labels operand error")
		}
		seen := map[string]bool{}
		var labels []string
		for _, d := range base.docs {
			label := s.classifyDoc(n.Class, d)
			if label != "unknown" && !seen[label] {
				seen[label] = true
				labels = append(labels, label)
			}
		}
		return genVal{kind: "labels", labels: labels}, nil
	case "title":
		base, err := s.evalNode(n.Over, docs)
		if err != nil || base.kind != "docs" || len(base.docs) == 0 {
			return genVal{}, fmt.Errorf("title operand error")
		}
		if m := reTitleLine.FindStringSubmatch(base.docs[0]); m != nil {
			return genVal{kind: "str", str: strings.TrimSpace(m[1])}, nil
		}
		return genVal{}, fmt.Errorf("no title")
	case "classify":
		base, err := s.evalNode(n.Over, docs)
		if err != nil || base.kind != "docs" || len(base.docs) == 0 {
			return genVal{}, fmt.Errorf("classify operand error")
		}
		return genVal{kind: "str", str: s.classifyDoc(n.Class, base.docs[0])}, nil
	case "pick":
		return s.evalPick(n, docs)
	default:
		return genVal{}, fmt.Errorf("unsupported node %q", n.Kind)
	}
}

func (s *Sim) evalSet(n *nlq.Node, docs []string) (genVal, error) {
	var base genVal
	switch {
	case n.Over != nil:
		v, err := s.evalNode(n.Over, docs)
		if err != nil {
			return genVal{}, err
		}
		base = v
	case strings.HasPrefix(n.Base, "{"):
		return genVal{}, fmt.Errorf("unbound base %s", n.Base)
	default:
		base = genVal{kind: "docs", docs: docs}
	}
	for _, flt := range n.Filters {
		cond := parseJudgeCond(condText(flt))
		switch base.kind {
		case "docs":
			kept := base.docs[:0:0]
			for _, d := range base.docs {
				if s.judge(cond, d) {
					kept = append(kept, d)
				}
			}
			base = genVal{kind: "docs", docs: kept}
		case "groups":
			kept := map[string][]string{}
			for label, members := range base.groups {
				if flt.Cond.Kind == nlcond.Subset {
					// Subset conditions restrict the group labels.
					if flt.Cond.EvalLabel(label) {
						kept[label] = members
					}
					continue
				}
				// Other conditions filter members within each group.
				var sub []string
				for _, d := range members {
					if s.judge(cond, d) {
						sub = append(sub, d)
					}
				}
				kept[label] = sub
			}
			base = genVal{kind: "groups", groups: kept}
		default:
			return genVal{}, fmt.Errorf("unfilterable operand")
		}
	}
	return base, nil
}

func condText(f nlq.Filter) string {
	if f.Text != "" {
		return f.Text
	}
	return f.Cond.String()
}

func (s *Sim) evalAgg(n *nlq.Node, docs []string) (genVal, error) {
	base, err := s.evalNode(n.Over, docs)
	if err != nil {
		return genVal{}, err
	}
	switch base.kind {
	case "docs":
		v, err := aggDocs(n, base.docs)
		if err != nil {
			return genVal{}, err
		}
		return genVal{kind: "num", num: v}, nil
	case "groups":
		out := map[string]float64{}
		for label, members := range base.groups {
			v, err := aggDocs(n, members)
			if err != nil {
				return genVal{}, err
			}
			out[label] = v
		}
		return genVal{kind: "vec", vec: out}, nil
	default:
		return genVal{}, fmt.Errorf("unaggregatable operand")
	}
}

func aggDocs(n *nlq.Node, docs []string) (float64, error) {
	if n.Agg == nlq.AggCount {
		return float64(len(docs)), nil
	}
	var vals []float64
	for _, d := range docs {
		if v, ok := nlcond.ExtractField(d, n.Field); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, nil
	}
	switch n.Agg {
	case nlq.AggSum:
		var t float64
		for _, v := range vals {
			t += v
		}
		return t, nil
	case nlq.AggAvg:
		var t float64
		for _, v := range vals {
			t += v
		}
		return t / float64(len(vals)), nil
	case nlq.AggMax:
		m := vals[0]
		for _, v := range vals {
			if v > m {
				m = v
			}
		}
		return m, nil
	case nlq.AggMin:
		m := vals[0]
		for _, v := range vals {
			if v < m {
				m = v
			}
		}
		return m, nil
	case nlq.AggMedian:
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			return vals[mid], nil
		}
		return (vals[mid-1] + vals[mid]) / 2, nil
	case nlq.AggPercentile:
		sort.Float64s(vals)
		idx := (n.P*len(vals) + 99) / 100
		if idx < 1 {
			idx = 1
		}
		if idx > len(vals) {
			idx = len(vals)
		}
		return vals[idx-1], nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q", n.Agg)
	}
}

func (s *Sim) evalSetOp(n *nlq.Node, docs []string) (genVal, error) {
	a, errA := s.evalNode(n.A, docs)
	b, errB := s.evalNode(n.B, docs)
	if errA != nil || errB != nil {
		return genVal{}, fmt.Errorf("set operand error")
	}
	if a.kind == "labels" && b.kind == "labels" {
		inB := map[string]bool{}
		for _, l := range b.labels {
			inB[l] = true
		}
		var out []string
		switch n.SetOp {
		case "union":
			seen := map[string]bool{}
			for _, l := range append(append([]string{}, a.labels...), b.labels...) {
				if !seen[l] {
					seen[l] = true
					out = append(out, l)
				}
			}
		case "intersection":
			for _, l := range a.labels {
				if inB[l] {
					out = append(out, l)
				}
			}
		default:
			for _, l := range a.labels {
				if !inB[l] {
					out = append(out, l)
				}
			}
		}
		return genVal{kind: "labels", labels: out}, nil
	}
	if a.kind == "docs" && b.kind == "docs" {
		inB := map[string]bool{}
		for _, d := range b.docs {
			inB[docKey(d)] = true
		}
		var out []string
		switch n.SetOp {
		case "union":
			seen := map[string]bool{}
			for _, d := range append(append([]string{}, a.docs...), b.docs...) {
				if !seen[docKey(d)] {
					seen[docKey(d)] = true
					out = append(out, d)
				}
			}
		case "intersection":
			for _, d := range a.docs {
				if inB[docKey(d)] {
					out = append(out, d)
				}
			}
		default:
			for _, d := range a.docs {
				if !inB[docKey(d)] {
					out = append(out, d)
				}
			}
		}
		return genVal{kind: "docs", docs: out}, nil
	}
	return genVal{}, fmt.Errorf("setop kind mismatch")
}

func (s *Sim) evalPick(n *nlq.Node, docs []string) (genVal, error) {
	base, err := s.evalNode(n.Over, docs)
	if err != nil {
		return genVal{}, err
	}
	switch {
	case n.Want == "docs" && base.kind == "docs":
		type scoredDoc struct {
			doc string
			val float64
		}
		scored := make([]scoredDoc, 0, len(base.docs))
		for _, d := range base.docs {
			v, ok := nlcond.ExtractField(d, n.By)
			if !ok {
				continue
			}
			scored = append(scored, scoredDoc{d, v})
		}
		sort.SliceStable(scored, func(i, j int) bool {
			if n.Dir == "asc" {
				return scored[i].val < scored[j].val
			}
			return scored[i].val > scored[j].val
		})
		k := n.K
		if k <= 0 || k > len(scored) {
			k = len(scored)
		}
		out := make([]string, k)
		for i := 0; i < k; i++ {
			out[i] = scored[i].doc
		}
		return genVal{kind: "docs", docs: out}, nil
	case base.kind == "vec":
		type entry struct {
			label string
			val   float64
		}
		entries := make([]entry, 0, len(base.vec))
		for k, v := range base.vec {
			entries = append(entries, entry{k, v})
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].val != entries[j].val {
				if n.Dir == "asc" {
					return entries[i].val < entries[j].val
				}
				return entries[i].val > entries[j].val
			}
			return entries[i].label < entries[j].label
		})
		k := n.K
		if k <= 0 || k > len(entries) {
			k = len(entries)
		}
		if k == 1 && len(entries) > 0 {
			return genVal{kind: "str", str: entries[0].label}, nil
		}
		out := make([]string, k)
		for i := 0; i < k; i++ {
			out[i] = entries[i].label
		}
		return genVal{kind: "labels", labels: out}, nil
	default:
		return genVal{}, fmt.Errorf("unpickable operand")
	}
}
