package llm

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"unify/internal/expr"
	"unify/internal/lexicon"
	"unify/internal/nlcond"
	"unify/internal/nlq"
)

// handlerTable wires every prompt family the system issues to its
// simulated behavior. Handlers read only prompt fields (query text,
// document text, operator names) plus lexicon knowledge — never hidden
// corpus metadata — so semantic work is genuine text comprehension.
func handlerTable() map[string]func(*Sim, map[string]string) (string, error) {
	return map[string]func(*Sim, map[string]string) (string, error){
		"parse_query":     (*Sim).handleParseQuery,
		"simple_question": (*Sim).handleSimpleQuestion,
		"rerank_op":       (*Sim).handleRerankOp,
		"reduce_query":    (*Sim).handleReduceQuery,
		"dep_check":       (*Sim).handleDepCheck,
		"filter_doc":      (*Sim).handleFilterDoc,
		"filter_batch":    (*Sim).handleFilterBatch,
		"filter_label":    (*Sim).handleFilterLabel,
		"classify_doc":    (*Sim).handleClassifyDoc,
		"classify_batch":  (*Sim).handleClassifyBatch,
		"extract_doc":     (*Sim).handleExtractDoc,
		"extract_batch":   (*Sim).handleExtractBatch,
		"compare_vals":    (*Sim).handleCompareVals,
		"agg_list":        (*Sim).handleAggList,
		"compute":         (*Sim).handleCompute,
		"generate":        (*Sim).handleGenerate,
		"decompose":       (*Sim).handleDecompose,
		"sample_chunk":    (*Sim).handleSampleChunk,
		"sample_combine":  (*Sim).handleSampleCombine,
		"plan_oneshot":    (*Sim).handlePlanOneshot,
		"judge_answers":   (*Sim).handleJudgeAnswers,
	}
}

// ---- Planner-side handlers (paper §V) ----

// ParseResult is the JSON shape returned by the parse_query task.
type ParseResult struct {
	OK bool   `json:"ok"`
	LR string `json:"lr,omitempty"`
}

func (s *Sim) handleParseQuery(f map[string]string) (string, error) {
	q, err := nlq.Parse(f["query"])
	if err != nil {
		return marshal(ParseResult{OK: false})
	}
	return marshal(ParseResult{OK: true, LR: q.LogicalRep()})
}

func (s *Sim) handleSimpleQuestion(f map[string]string) (string, error) {
	text := strings.TrimSpace(f["query"])
	if _, ok := nlq.ParseVarRef(text); ok {
		return "yes", nil
	}
	q, err := nlq.Parse(text)
	if err == nil && q.Solved() {
		return "yes", nil
	}
	return "no", nil
}

func (s *Sim) handleRerankOp(f map[string]string) (string, error) {
	q, err := nlq.Parse(f["query"])
	if err != nil {
		return "not", nil
	}
	op := strings.TrimSpace(f["operator"])
	degree := "not"
	if red, ok := nlq.Reduce(q, op, 9999); ok {
		if red.Query.Solved() {
			degree = "fully"
		} else {
			degree = "partially"
		}
	}
	// Occasional misjudgment: downgrade an applicable operator or
	// upgrade a blocked-but-present one (costs the planner a wasted
	// reduction attempt and a backtrack).
	if s.chance(s.cfg.RerankNoise, "rerank", f["query"], op) {
		if degree == "partially" {
			degree = "not"
		} else if degree == "not" && nlq.Mentions(q, op) {
			degree = "partially"
		}
	}
	return degree, nil
}

// ReduceResult is the JSON shape returned by the reduce_query task.
type ReduceResult struct {
	OK        bool              `json:"ok"`
	Reduced   string            `json:"reduced,omitempty"`
	Rewritten string            `json:"rewritten,omitempty"` // matched segment in LR form
	Var       string            `json:"var,omitempty"`
	Desc      string            `json:"desc,omitempty"`
	Inputs    []string          `json:"inputs,omitempty"`
	Args      map[string]string `json:"args,omitempty"` // structured slot output
}

var rePlaceholder = regexp.MustCompile(`\[(Entity|Condition|Attribute|Number|Field)\]`)

// instantiateLR fills an operator logical representation with concrete
// argument values, producing the "rewritten segment" the planner parses
// with regular expressions (paper §III-C).
func instantiateLR(lr string, args map[string]string) string {
	usedEntity := false
	return rePlaceholder.ReplaceAllStringFunc(lr, func(ph string) string {
		key := strings.Trim(ph, "[]")
		if key == "Entity" {
			if usedEntity && args["Entity2"] != "" {
				return args["Entity2"]
			}
			usedEntity = true
		}
		if v, ok := args[key]; ok && v != "" {
			return v
		}
		return ph
	})
}

func (s *Sim) handleReduceQuery(f map[string]string) (string, error) {
	q, err := nlq.Parse(f["query"])
	if err != nil {
		return marshal(ReduceResult{OK: false})
	}
	next, err := strconv.Atoi(strings.TrimSpace(f["next"]))
	if err != nil {
		return "", fmt.Errorf("bad next var index %q", f["next"])
	}
	op := strings.TrimSpace(f["operator"])
	variant := 0
	if v, err := strconv.Atoi(strings.TrimSpace(f["variant"])); err == nil {
		variant = v
	}
	red, ok := nlq.ReduceVariant(q, op, next, variant)
	if !ok {
		return marshal(ReduceResult{OK: false})
	}
	args := red.Args
	desc := red.VarDesc
	// Mis-binding noise: swap a concept condition for a sibling concept —
	// the reduction "succeeds" but solves a subtly different query.
	if cond, isCond := args["Condition"]; isCond && s.chance(s.cfg.BindNoise, "bind", f["query"], op) {
		if c, okc := nlcond.Parse(cond); okc && c.Kind == nlcond.Concept {
			if sib := siblingConcept(c.Concept); sib != "" {
				wrong := "related to " + sib
				desc = strings.Replace(desc, cond, wrong, 1)
				args = copyArgs(args)
				args["Condition"] = wrong
			}
		}
	}
	return marshal(ReduceResult{
		OK:        true,
		Reduced:   red.Query.Render(),
		Rewritten: instantiateLR(f["lr"], args),
		Var:       red.VarName,
		Desc:      desc,
		Inputs:    red.Inputs,
		Args:      args,
	})
}

func copyArgs(a map[string]string) map[string]string {
	out := make(map[string]string, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// siblingConcept returns another concept of the same class, or "".
func siblingConcept(name string) string {
	c, ok := lexicon.Lookup(name)
	if !ok {
		return ""
	}
	names := lexicon.Names(c.Class)
	for i, n := range names {
		if n == c.Name {
			return names[(i+1)%len(names)]
		}
	}
	return ""
}

func (s *Sim) handleDepCheck(f map[string]string) (string, error) {
	out := strings.TrimSpace(f["output"])
	if out != "" && strings.Contains(f["inputs"], out) {
		return "yes", nil
	}
	return "no", nil
}

// ---- Operator-side handlers (paper §IV LLM-based implementations) ----

// judgeCond is a filter condition as the model understood it, parsed once
// per call however many documents the call judges.
type judgeCond struct {
	text string // as written in the prompt; keys the noise draw
	cond nlcond.Cond
}

func parseJudgeCond(condText string) judgeCond {
	cond, ok := nlcond.Parse(condText)
	if !ok {
		cond = nlcond.Cond{Kind: nlcond.Concept, Concept: nlcond.NormalizeConcept(condText)}
	}
	return judgeCond{text: condText, cond: cond}
}

// judge evaluates the condition against document text, with the
// per-judgment noise model applied.
func (s *Sim) judge(c judgeCond, doc string) bool {
	v := c.cond.EvalSemantic(doc)
	// Judgment noise is asymmetric, as with real models on this task:
	// missing a relevant document (flipping yes->no) is far more common
	// than hallucinating relevance across thousands of negatives — a
	// symmetric rate would bury small result sets in false positives.
	p := s.cfg.FilterNoise
	if !v {
		p /= 8
	}
	if s.chance(p, "filter", c.text, docKey(doc)) {
		v = !v
	}
	return v
}

// docKey shortens a document text to a stable identity for noise keying.
func docKey(doc string) string {
	if len(doc) > 96 {
		return doc[:96]
	}
	return doc
}

func yesNo(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

func (s *Sim) handleFilterDoc(f map[string]string) (string, error) {
	return yesNo(s.judge(parseJudgeCond(f["condition"]), f["doc"])), nil
}

func (s *Sim) handleFilterBatch(f map[string]string) (string, error) {
	docs := SplitDocs(f["docs"])
	cond := parseJudgeCond(f["condition"])
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = yesNo(s.judge(cond, d))
	}
	return strings.Join(out, ","), nil
}

func (s *Sim) handleFilterLabel(f map[string]string) (string, error) {
	cond, ok := nlcond.Parse(f["condition"])
	if !ok {
		return "no", nil
	}
	return yesNo(cond.EvalLabel(strings.TrimSpace(f["label"]))), nil
}

// classClasses maps a surface class word to the candidate lexicon classes
// it may denote; the document's content disambiguates.
func classClasses(word string) []string {
	switch strings.TrimSpace(strings.ToLower(word)) {
	case "sport":
		return []string{"sport"}
	case "field":
		return []string{"aifield"}
	case "area":
		return []string{"lawarea"}
	case "category":
		return []string{"wikicat"}
	case "topic":
		return []string{"topic", "aiaspect", "lawaspect", "wikiaspect"}
	default:
		return []string{"topic"}
	}
}

// classifyDoc picks the best label of the surface class for a document:
// one scan of the text serves every candidate class.
func (s *Sim) classifyDoc(classWord, doc string) string {
	hits := lexicon.Scan(doc)
	best, bestHits := "", -1
	for _, class := range classClasses(classWord) {
		if label := hits.Best(class); label != "" {
			if n := hits.Evoked(label); n > bestHits {
				best, bestHits = label, n
			}
		}
	}
	if best == "" {
		return "unknown"
	}
	if s.chance(s.cfg.LabelNoise, "label", classWord, docKey(doc)) {
		if sib := siblingConcept(best); sib != "" {
			return sib
		}
	}
	return best
}

func (s *Sim) handleClassifyDoc(f map[string]string) (string, error) {
	return s.classifyDoc(f["class"], f["doc"]), nil
}

func (s *Sim) handleClassifyBatch(f map[string]string) (string, error) {
	docs := SplitDocs(f["docs"])
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = s.classifyDoc(f["class"], d)
	}
	return strings.Join(out, ","), nil
}

var reTitleLine = regexp.MustCompile(`(?m)^Title:\s*(.+)$`)

func (s *Sim) handleExtractDoc(f map[string]string) (string, error) {
	return s.extractDoc(extractTarget(f["target"]), f["doc"]), nil
}

func extractTarget(field string) string {
	return strings.ToLower(strings.TrimSpace(field))
}

// extractDoc pulls the (normalized) target out of one document.
func (s *Sim) extractDoc(target, doc string) string {
	switch target {
	case "title":
		if m := reTitleLine.FindStringSubmatch(doc); m != nil {
			return strings.TrimSpace(m[1])
		}
		return "unknown"
	case "views", "score", "year":
		if v, ok := nlcond.ExtractField(doc, target); ok {
			return strconv.FormatFloat(v, 'f', -1, 64)
		}
		return "unknown"
	default:
		// Concept-valued extraction ("sport", "topic", ...).
		return s.classifyDoc(target, doc)
	}
}

func (s *Sim) handleExtractBatch(f map[string]string) (string, error) {
	docs := SplitDocs(f["docs"])
	target := extractTarget(f["target"])
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = s.extractDoc(target, d)
	}
	return strings.Join(out, ","), nil
}

func (s *Sim) handleCompareVals(f map[string]string) (string, error) {
	a, errA := strconv.ParseFloat(strings.TrimSpace(f["a"]), 64)
	b, errB := strconv.ParseFloat(strings.TrimSpace(f["b"]), 64)
	if errA != nil || errB != nil {
		return "", fmt.Errorf("compare_vals: non-numeric operands %q %q", f["a"], f["b"])
	}
	if a >= b {
		return "first", nil
	}
	return "second", nil
}

func (s *Sim) handleAggList(f map[string]string) (string, error) {
	kind := strings.TrimSpace(f["kind"])
	var vals []float64
	for _, ln := range strings.Split(f["values"], "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		v, err := strconv.ParseFloat(ln, 64)
		if err != nil {
			if kind == "count" {
				vals = append(vals, 0)
				continue
			}
			return "", fmt.Errorf("agg_list: bad value %q", ln)
		}
		vals = append(vals, v)
	}
	if kind == "count" {
		return strconv.Itoa(len(vals)), nil
	}
	if len(vals) == 0 {
		return "0", nil
	}
	var out float64
	switch kind {
	case "sum":
		for _, v := range vals {
			out += v
		}
	case "average":
		for _, v := range vals {
			out += v
		}
		out /= float64(len(vals))
	case "max":
		out = vals[0]
		for _, v := range vals {
			if v > out {
				out = v
			}
		}
	case "min":
		out = vals[0]
		for _, v := range vals {
			if v < out {
				out = v
			}
		}
	case "median":
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			out = vals[mid]
		} else {
			out = (vals[mid-1] + vals[mid]) / 2
		}
	default:
		if strings.HasPrefix(kind, "percentile:") {
			p, err := strconv.Atoi(strings.TrimPrefix(kind, "percentile:"))
			if err != nil {
				return "", fmt.Errorf("agg_list: bad percentile %q", kind)
			}
			sort.Float64s(vals)
			idx := (p*len(vals) + 99) / 100
			if idx < 1 {
				idx = 1
			}
			if idx > len(vals) {
				idx = len(vals)
			}
			out = vals[idx-1]
		} else {
			return "", fmt.Errorf("agg_list: unknown kind %q", kind)
		}
	}
	return strconv.FormatFloat(out, 'f', -1, 64), nil
}

func (s *Sim) handleCompute(f map[string]string) (string, error) {
	vars := map[string]float64{}
	for _, ln := range strings.Split(f["bindings"], "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		name, valStr, ok := strings.Cut(ln, "=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			continue
		}
		vars[strings.TrimSpace(name)] = v
	}
	v, err := expr.Eval(f["expression"], vars)
	if err != nil {
		return "", err
	}
	return strconv.FormatFloat(v, 'f', -1, 64), nil
}

func marshal(v interface{}) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
