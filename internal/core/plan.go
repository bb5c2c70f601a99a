// Package core implements the paper's primary contribution: the planning
// engine that turns a natural-language analytics query into a DAG-shaped
// logical plan by iterative, LLM-guided query reduction (paper §V,
// Algorithm 1), ready for physical optimization and execution.
package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"strings"

	"unify/internal/ops"
	"unify/internal/values"
)

// Known is an observed variable signature fed back to the optimizer
// during dynamic replanning (paper §V): after part of a plan has
// executed, the true kind and cardinality of each produced variable
// replace the estimates for the remaining DAG suffix.
type Known struct {
	Kind values.Kind
	// Card counts documents (Docs/Groups) or entries (Vec/Labels).
	Card int
	// Groups is the group count for Groups values.
	Groups int
}

// KnownOf summarizes an executed value for replanning feedback.
func KnownOf(v values.Value) Known {
	k := Known{Kind: v.Kind}
	switch v.Kind {
	case values.Docs:
		k.Card = len(v.DocIDs)
	case values.Groups:
		k.Card = v.TotalDocs()
		k.Groups = len(v.GroupVal)
	default:
		k.Card = v.Len()
	}
	return k
}

// Node is one operator application in a logical (and later physical) plan.
type Node struct {
	ID     int
	Op     string   // logical operator name ("Filter", "GroupBy", ...)
	LR     string   // the logical representation the segment matched
	Args   ops.Args // placeholder bindings extracted from the rewrite
	Inputs []string // consumed variables: "{v1}" tokens or "dataset"
	OutVar string   // produced variable name, e.g. "v3"
	Desc   string   // natural-language description of the output variable
	Deps   []int    // direct prerequisite node ids (DAG edges)

	// Physical selection, filled by the optimizer.
	Phys string
	// EstCard is the optimizer's estimated output cardinality.
	EstCard int
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	c := *n
	c.Args = make(ops.Args, len(n.Args))
	for k, v := range n.Args {
		c.Args[k] = v
	}
	c.Inputs = append([]string(nil), n.Inputs...)
	c.Deps = append([]int(nil), n.Deps...)
	return &c
}

// Plan is a DAG of operator nodes; the node producing the final variable
// is the plan's root (last node appended).
type Plan struct {
	Query string
	Nodes []*Node

	// digest is the plan's content digest once seal has computed it. The
	// planner seals the candidates it returns, which nothing may modify
	// afterwards; a Clone is a new, unsealed plan.
	digest [sha256.Size]byte
	sealed bool
}

// Digest returns the plan's content digest: every node's operator,
// output variable, logical representation, sorted arguments, inputs and
// dependency edges, with node ids renumbered to topological positions so
// two plannings of one query digest identically. It covers nothing the
// optimizer fills in or is configured with, so one digest serves every
// optimizer setting. A plan the planner returned carries its digest; any
// other plan is digested on the call.
func (p *Plan) Digest() [sha256.Size]byte {
	if p.sealed {
		return p.digest
	}
	return p.contentDigest(sha256.New())
}

// seal computes the plan's digest once, with the caller's hasher.
func (p *Plan) seal(h hash.Hash) {
	p.digest, p.sealed = p.contentDigest(h), true
}

// contentDigest hashes the content Digest covers with h, which it resets.
func (p *Plan) contentDigest(h hash.Hash) (d [sha256.Size]byte) {
	h.Reset()
	order, err := p.Topo()
	if err != nil {
		// An unsortable plan hashes by raw node order; optimizing it
		// surfaces the error.
		order = p.Nodes
	}
	pos := make(map[int]int, len(order))
	for i, n := range order {
		pos[n.ID] = i
	}
	for i, n := range order {
		fmt.Fprintf(h, "\x1d%d|%s|%s|%s", i, n.Op, n.OutVar, n.LR)
		keys := make([]string, 0, len(n.Args))
		for k := range n.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "\x1c%s=%s", k, n.Args[k])
		}
		for _, ref := range n.Inputs {
			fmt.Fprintf(h, "\x1bi%s", ref)
		}
		for _, d := range n.Deps {
			fmt.Fprintf(h, "\x1bd%d", pos[d])
		}
	}
	h.Sum(d[:0])
	return d
}

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	c := &Plan{Query: p.Query, Nodes: make([]*Node, len(p.Nodes))}
	for i, n := range p.Nodes {
		c.Nodes[i] = n.Clone()
	}
	return c
}

// Root returns the final node (the answer producer), or nil for an empty
// plan.
func (p *Plan) Root() *Node {
	if len(p.Nodes) == 0 {
		return nil
	}
	return p.Nodes[len(p.Nodes)-1]
}

// Node returns the node with the given id.
func (p *Plan) Node(id int) *Node {
	for _, n := range p.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// Topo returns the nodes in a deterministic topological order (by
// dependency level, then id). It returns an error on cycles.
func (p *Plan) Topo() ([]*Node, error) {
	indeg := map[int]int{}
	succ := map[int][]int{}
	for _, n := range p.Nodes {
		indeg[n.ID] += 0
		for _, d := range n.Deps {
			indeg[n.ID]++
			succ[d] = append(succ[d], n.ID)
		}
	}
	var frontier []int
	for _, n := range p.Nodes {
		if indeg[n.ID] == 0 {
			frontier = append(frontier, n.ID)
		}
	}
	sort.Ints(frontier)
	var order []*Node
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, p.Node(id))
		var next []int
		for _, s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				next = append(next, s)
			}
		}
		sort.Ints(next)
		frontier = append(frontier, next...)
		sort.Ints(frontier)
	}
	if len(order) != len(p.Nodes) {
		return nil, fmt.Errorf("core: plan has a dependency cycle")
	}
	return order, nil
}

// Levels assigns each node its dependency depth (roots at 0). Nodes on
// the same level can execute in parallel.
func (p *Plan) Levels() map[int]int {
	order, err := p.Topo()
	if err != nil {
		return nil
	}
	lvl := map[int]int{}
	for _, n := range order {
		max := 0
		for _, d := range n.Deps {
			if lvl[d]+1 > max {
				max = lvl[d] + 1
			}
		}
		lvl[n.ID] = max
	}
	return lvl
}

// String renders a compact human-readable plan summary.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %q:\n", p.Query)
	for _, n := range p.Nodes {
		phys := n.Phys
		if phys == "" {
			phys = "?"
		}
		fmt.Fprintf(&b, "  [%d] %s(%s) <- %v deps=%v -> {%s} %q\n",
			n.ID, n.Op, phys, n.Inputs, n.Deps, n.OutVar, n.Desc)
	}
	return b.String()
}

// OpCounts tallies operators by name (used by tests and diagnostics).
func (p *Plan) OpCounts() map[string]int {
	out := map[string]int{}
	for _, n := range p.Nodes {
		out[n.Op]++
	}
	return out
}

// DOT renders the plan as a Graphviz digraph for visual debugging
// (`unify -dot "<query>" | dot -Tsvg`). Nodes show the operator, its
// physical implementation, and the produced variable; edges follow data
// dependencies.
func (p *Plan) DOT() string {
	var b strings.Builder
	b.WriteString("digraph plan {\n")
	b.WriteString("  rankdir=BT;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	fmt.Fprintf(&b, "  label=%q;\n", p.Query)
	for _, n := range p.Nodes {
		phys := n.Phys
		if phys == "" {
			phys = "?"
		}
		label := fmt.Sprintf("%s\\n(%s)\\n{%s}", n.Op, phys, n.OutVar)
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n.ID, label)
		for _, d := range n.Deps {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", d, n.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
