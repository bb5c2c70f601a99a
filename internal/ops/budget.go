package ops

import (
	"errors"
	"sync"
)

// ErrBadOutput marks a model response the operator could not parse
// (wrong verdict count, non-numeric aggregate, garbled text). It is
// permanent for the individual call — retrying the identical response
// cannot help — but absorbable by a node's FaultBudget.
var ErrBadOutput = errors.New("ops: malformed model output")

// FaultBudget is a per-node error budget: an operator running under a
// budget may absorb a bounded number of per-batch LLM failures by
// skipping the affected documents instead of failing the whole node
// (graceful degradation). Skipped-document counts feed partial-result
// accounting on the answer. A nil budget absorbs nothing (fail-fast,
// the pre-budget behavior).
type FaultBudget struct {
	mu        sync.Mutex
	remaining int
	skipped   int
}

// NewFaultBudget returns a budget tolerating n absorbed failures.
func NewFaultBudget(n int) *FaultBudget {
	if n <= 0 {
		return nil
	}
	return &FaultBudget{remaining: n}
}

// Absorb consumes one unit of budget for a failure affecting docs
// documents. It reports whether the failure was absorbed; callers skip
// the documents and continue on true, and propagate the failure on false.
func (b *FaultBudget) Absorb(docs int) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.remaining <= 0 {
		return false
	}
	b.remaining--
	b.skipped += docs
	return true
}

// Skipped returns the number of documents dropped so far.
func (b *FaultBudget) Skipped() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.skipped
}
