package check

import (
	"context"
	"fmt"
)

// Axis is one metamorphic configuration dimension: two system
// configurations that must produce equivalent answers on every query.
// The driver runs the same seeded workload slice through both sides and
// reports divergences. The concrete system construction lives with the
// root package tests (check cannot import unify without a cycle); the
// axis metadata lives here so docs, CI, and tests agree on the list.
type Axis struct {
	Name        string
	Description string
	// Exact requires byte-identical answer text (and, where wired,
	// identical virtual latency); approximate axes instead compare
	// workload accuracy within the seed tolerance.
	Exact bool
}

// Axes is the registry of metamorphic axes the harness covers.
var Axes = []Axis{
	{
		Name:        "cache",
		Description: "answer cache on (default budget) vs off: cache hits must be invisible to results",
		Exact:       true,
	},
	{
		Name:        "faults-zero",
		Description: "fault plan installed with rate 0 vs no fault plan: a never-firing injector must be a no-op",
		Exact:       true,
	},
	{
		Name:        "pool",
		Description: "shared slot pool vs solo (private schedule) execution: a lone query sees identical text and virtual latency",
		Exact:       true,
	},
	{
		Name:        "mode-override",
		Description: "system-level optimizer mode vs per-query WithModeOverride of the same mode",
		Exact:       true,
	},
	{
		Name:        "optimized-vs-exhaustive",
		Description: "cost-based optimized plans vs the exhaustive baseline: workload accuracy within the seed tolerance",
		Exact:       false,
	},
	{
		Name:        "batching",
		Description: "continuous batching on vs off: cross-query coalescing changes schedules only, never answer text",
		Exact:       true,
	},
	{
		Name:        "usql_vs_nl",
		Description: "USQL-parsed vs LLM-planned routes on dual-form workload queries: byte-identical answers, and the parsed side makes zero planner-LLM calls",
		Exact:       true,
	},
	{
		Name:        "ingest",
		Description: "corpus built incrementally (base + AddDocs) vs statically over the full collection: byte-identical answers on the same workload",
		Exact:       true,
	},
}

// Runner executes one query on one side of an axis and returns a
// comparable answer fingerprint (typically text, or text plus virtual
// latency for exact axes).
type Runner func(ctx context.Context, query string) (string, error)

// Mismatch records one divergence the differential driver found.
type Mismatch struct {
	Axis  string
	Query string
	Left  string
	Right string
	Err   error
}

func (m Mismatch) String() string {
	if m.Err != nil {
		return fmt.Sprintf("[%s] %q: %v", m.Axis, m.Query, m.Err)
	}
	return fmt.Sprintf("[%s] %q: left %q != right %q", m.Axis, m.Query, m.Left, m.Right)
}

// Differential runs every query through both sides of an axis and
// collects mismatches. An error on exactly one side is a mismatch (the
// axis changed observable behavior); an error on both sides must be the
// same error text to count as equivalent.
func Differential(ctx context.Context, axis string, queries []string, left, right Runner) []Mismatch {
	var out []Mismatch
	for _, q := range queries {
		lv, lerr := left(ctx, q)
		rv, rerr := right(ctx, q)
		switch {
		case lerr != nil || rerr != nil:
			if fmt.Sprint(lerr) != fmt.Sprint(rerr) {
				out = append(out, Mismatch{Axis: axis, Query: q,
					Err: fmt.Errorf("left err %v, right err %v", lerr, rerr)})
			}
		case lv != rv:
			out = append(out, Mismatch{Axis: axis, Query: q, Left: lv, Right: rv})
		}
	}
	return out
}
