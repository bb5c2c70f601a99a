package cost

import (
	"testing"
	"time"

	"unify/internal/llm"
)

func TestColdStartPriors(t *testing.T) {
	c := NewCalibrator(16)
	if c.Mu() <= 0 {
		t.Error("cold μ must be positive")
	}
	if c.outPerItemLocked("SemanticFilter") <= 0 {
		t.Error("cold out_op must be positive")
	}
	if c.EstimateLLM("SemanticFilter", 100) <= 0 {
		t.Error("cold LLM estimate must be positive")
	}
	if c.EstimatePre("ExactFilter", 100) != 100*DefaultPrePerItem {
		t.Error("cold pre estimate should use the prior")
	}
}

func TestCalibrationConverges(t *testing.T) {
	c := NewCalibrator(16)
	// Feed history: 10 calls covering 160 items, 2 tokens/item at
	// 10ms/token.
	var calls []llm.Call
	for i := 0; i < 10; i++ {
		calls = append(calls, llm.Call{Task: "filter_batch", OutTokens: 32, Dur: 320 * time.Millisecond})
	}
	c.RecordLLM("SemanticFilter", 160, calls)
	mu := c.Mu()
	if mu < 8*time.Millisecond || mu > 14*time.Millisecond {
		t.Errorf("μ = %v, want ~10ms", mu)
	}
	out := c.outPerItemLocked("SemanticFilter")
	if out < 1.8 || out > 2.2 {
		t.Errorf("out_op = %v, want ~2", out)
	}
	// card·μ·out_op for 320 items ≈ 2 × 320 × 10ms = 6.4s.
	est := c.EstimateLLM("SemanticFilter", 320)
	if est < 5*time.Second || est > 8*time.Second {
		t.Errorf("estimate = %v, want ~6.4s", est)
	}
}

func TestEstimateScalesWithCardinality(t *testing.T) {
	c := NewCalibrator(16)
	small := c.EstimateLLM("X", 10)
	big := c.EstimateLLM("X", 1000)
	if big <= small {
		t.Error("LLM cost must grow with cardinality")
	}
	ratio := float64(big) / float64(small)
	if ratio < 90 || ratio > 110 {
		t.Errorf("cost should scale linearly: ratio %v", ratio)
	}
}

func TestPreCalibration(t *testing.T) {
	c := NewCalibrator(16)
	c.RecordPre("ExactFilter", 1000, 50*time.Millisecond)
	est := c.EstimatePre("ExactFilter", 2000)
	if est != 100*time.Millisecond {
		t.Errorf("pre estimate = %v, want 100ms", est)
	}
	if c.PreDuration("ExactFilter", 2000) != est {
		t.Error("PreDuration should match the calibrated estimate")
	}
}

func TestEstimateLLMCalls(t *testing.T) {
	c := NewCalibrator(16)
	if n := c.EstimateLLMCalls(0); n != 0 {
		t.Errorf("0 items -> %d calls", n)
	}
	if n := c.EstimateLLMCalls(16); n != 1 {
		t.Errorf("16 items -> %d calls", n)
	}
	if n := c.EstimateLLMCalls(17); n != 2 {
		t.Errorf("17 items -> %d calls", n)
	}
}

func TestNegativeCardClamped(t *testing.T) {
	c := NewCalibrator(16)
	if c.EstimateLLM("X", -5) != 0 {
		t.Error("negative cardinality should cost nothing")
	}
	if c.EstimatePre("X", -5) != 0 {
		t.Error("negative cardinality should cost nothing")
	}
}
