// Package cost implements the paper's §VI-A cost model. Operator cost is
// execution time. LLM-based implementations cost card·μ·out_op, where μ
// (time per output token) and out_op (average output tokens per processed
// item) are estimated from recorded execution history; pre-programmed
// implementations cost a calibrated function of input cardinality.
package cost

import (
	"sync"
	"time"

	"unify/internal/llm"
)

// Calibrator accumulates execution history and produces cost estimates.
// It is safe for concurrent use.
type Calibrator struct {
	mu sync.Mutex

	// frozen stops further history from being recorded (see Freeze).
	frozen bool

	// Per physical-operator LLM statistics.
	llmStats map[string]*llmStat
	// Global per-token time (μ), pooled across operators.
	totalTokens int
	totalDur    time.Duration

	// Per pre-programmed operator: observed per-item durations.
	preStats map[string]*preStat

	// BatchSize mirrors the executor's batching so call-count estimates
	// match reality.
	BatchSize int
}

type llmStat struct {
	items  int // processed items (cardinality)
	tokens int // output tokens generated
	calls  int
}

type preStat struct {
	items int
	dur   time.Duration
}

// NewCalibrator returns a calibrator with mild priors so cold-start
// estimates exist before any history accumulates.
func NewCalibrator(batchSize int) *Calibrator {
	if batchSize <= 0 {
		batchSize = 16
	}
	c := &Calibrator{
		llmStats:  map[string]*llmStat{},
		preStats:  map[string]*preStat{},
		BatchSize: batchSize,
	}
	// Priors: ~1.2 output tokens per item at the worker model's speed,
	// and 25µs per item of pre-programmed work.
	c.totalTokens = 100
	c.totalDur = 100 * llm.WorkerProfile().PerOutToken
	return c
}

// Freeze stops the calibrator from absorbing further execution history;
// estimates keep serving the state at freeze time. Concurrent benchmarks
// freeze the cost model after a sequential warmup pass so every query
// plans against the same converged statistics regardless of the racy
// wall-clock order in which other queries happen to finish.
func (c *Calibrator) Freeze() {
	c.mu.Lock()
	c.frozen = true
	c.mu.Unlock()
}

// RecordLLM feeds one operator execution's recorded calls into the model.
func (c *Calibrator) RecordLLM(phys string, card int, calls []llm.Call) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		return
	}
	st, ok := c.llmStats[phys]
	if !ok {
		st = &llmStat{}
		c.llmStats[phys] = st
	}
	st.items += card
	st.calls += len(calls)
	for _, call := range calls {
		st.tokens += call.OutTokens
		c.totalTokens += call.OutTokens
		c.totalDur += call.Dur
	}
}

// RecordPre feeds one pre-programmed execution into the model.
func (c *Calibrator) RecordPre(phys string, card int, dur time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		return
	}
	st, ok := c.preStats[phys]
	if !ok {
		st = &preStat{}
		c.preStats[phys] = st
	}
	st.items += card
	st.dur += dur
}

// Mu returns the estimated time per output token (μ).
func (c *Calibrator) Mu() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.muLocked()
}

func (c *Calibrator) muLocked() time.Duration {
	if c.totalTokens == 0 {
		return llm.WorkerProfile().PerOutToken
	}
	return c.totalDur / time.Duration(c.totalTokens)
}

// outPerItemLocked returns out_op: the average output tokens generated
// per processed item for the physical operator.
func (c *Calibrator) outPerItemLocked(phys string) float64 {
	st, ok := c.llmStats[phys]
	if !ok || st.items == 0 {
		return 1.3 // prior: roughly one verdict token plus separators
	}
	return float64(st.tokens) / float64(st.items)
}

// EstimateLLM returns the total LLM busy time of an LLM-based operator
// over card items: card·μ·out_op (paper §VI-A). This is busy time, not
// wall time: the executor parallelizes calls across slots.
func (c *Calibrator) EstimateLLM(phys string, card int) time.Duration {
	if card < 0 {
		card = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	perItem := float64(c.muLocked()) * c.outPerItemLocked(phys)
	return time.Duration(perItem * float64(card))
}

// EstimateLLMCalls returns the expected number of model invocations given
// the batching policy.
func (c *Calibrator) EstimateLLMCalls(card int) int {
	if card <= 0 {
		return 0
	}
	return (card + c.BatchSize - 1) / c.BatchSize
}

// DefaultPrePerItem is the prior for pre-programmed per-item work (regex
// scans over a rendered page).
const DefaultPrePerItem = 25 * time.Microsecond

// EstimatePre returns the estimated duration of a pre-programmed operator
// over card items: the calibrated f_op(card).
func (c *Calibrator) EstimatePre(phys string, card int) time.Duration {
	if card < 0 {
		card = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.preStats[phys]
	if !ok || st.items == 0 {
		return time.Duration(card) * DefaultPrePerItem
	}
	perItem := st.dur / time.Duration(st.items)
	return perItem * time.Duration(card)
}

// PreDuration models the actual duration charged to the virtual clock for
// executing a pre-programmed operator over card items. The model is the
// calibrated per-item cost; it is deterministic so experiments reproduce
// exactly.
func (c *Calibrator) PreDuration(phys string, card int) time.Duration {
	return c.EstimatePre(phys, card)
}

// EstimateLLMTokens returns the expected number of generated tokens for
// an LLM-based operator over card items — the quantity a monetary cost
// objective charges for (the paper's footnote 1: optimizing total cost
// instead of total time only swaps the cost function).
func (c *Calibrator) EstimateLLMTokens(phys string, card int) float64 {
	if card < 0 {
		card = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outPerItemLocked(phys) * float64(card)
}
