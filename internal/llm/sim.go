package llm

import (
	"context"
	"fmt"
	"sync/atomic"
)

// SimConfig controls the simulated model's speed and imperfection. Noise
// rates are probabilities of human-plausible mistakes, applied
// deterministically per decision (keyed hashing), so runs are reproducible
// while accuracy stays realistically below 100%.
type SimConfig struct {
	Profile Profile
	Seed    uint64

	// FilterNoise flips an individual semantic yes/no judgment.
	FilterNoise float64
	// LabelNoise replaces a classification/grouping label with a
	// neighboring label.
	LabelNoise float64
	// RerankNoise degrades an operator-applicability judgment.
	RerankNoise float64
	// BindNoise corrupts a slot binding during query reduction (the
	// dominant source of wrong-but-plausible plans).
	BindNoise float64
	// PlanNoise scales the per-step corruption probability of one-shot
	// plan generation (the LLMPlan baseline's failure mode).
	PlanNoise float64
	// JudgeNoise makes the plan/answer judge pick a non-majority answer.
	JudgeNoise float64
}

// DefaultFilterNoise is the default probability that the simulated model
// flips one semantic yes/no judgment. Its magnitude coincides with the
// cost model's PrefillTokenFactor (llm.go) by accident, not by design:
// the two constants are unrelated, and tuning prefill amortization for
// batching must never alter the noise model.
const DefaultFilterNoise = 0.015

// DefaultSimConfig returns the configuration used across the experiments:
// worker-model speed with mild, realistic error rates.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Profile:     WorkerProfile(),
		Seed:        1,
		FilterNoise: DefaultFilterNoise,
		LabelNoise:  0.008,
		RerankNoise: 0.05,
		BindNoise:   0.025,
		PlanNoise:   0.45,
		JudgeNoise:  0.32,
	}
}

// Sim is the deterministic simulated language model. It dispatches on the
// prompt's #TASK directive and answers using only the text carried in the
// prompt plus fixed lexicon knowledge — the same information a real model
// would see. A response is a pure function of (config, prompt), so
// identical prompts return identical responses; remembering them is the
// job of the cache layer above (Cached), not of the model.
type Sim struct {
	cfg      SimConfig
	handlers map[string]func(*Sim, map[string]string) (string, error)

	nCalls    atomic.Int64
	nAnswered atomic.Int64
}

// NewSim returns a simulated model with the given configuration.
func NewSim(cfg SimConfig) *Sim {
	if cfg.Profile.PerOutToken == 0 {
		cfg.Profile = WorkerProfile()
	}
	return &Sim{cfg: cfg, handlers: handlerTable()}
}

// Profile implements Client.
func (s *Sim) Profile() Profile { return s.cfg.Profile }

// Stats reports how many prompts were received and how many of those
// were answered (the rest failed: malformed prompt, unknown task, or a
// handler error).
func (s *Sim) Stats() (calls, answered int) {
	return int(s.nCalls.Load()), int(s.nAnswered.Load())
}

// Complete implements Client.
func (s *Sim) Complete(ctx context.Context, prompt string) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	s.nCalls.Add(1)
	task, fields, ok := ParsePrompt(prompt)
	if !ok {
		return Response{}, ErrMalformed
	}
	h, ok := s.handlers[task]
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownTask, task)
	}
	text, err := h(s, fields)
	if err != nil {
		return Response{}, &TaskError{Task: task, Err: err}
	}
	out := CountTokens(text)
	in := CountTokens(prompt)
	s.nAnswered.Add(1)
	return Response{
		Text:      text,
		InTokens:  in,
		OutTokens: out,
		Dur:       s.cfg.Profile.DurFor(in, out),
	}, nil
}

// chance returns a deterministic pseudo-random draw in [0,1) keyed by the
// decision identity, and reports whether it falls below p.
func (s *Sim) chance(p float64, keys ...string) bool {
	if p <= 0 {
		return false
	}
	v := float64(s.keyHash(0, keys)>>11) / (1 << 53)
	return v < p
}

// pick returns a deterministic pseudo-random index in [0,n) keyed by the
// decision identity.
func (s *Sim) pick(n int, keys ...string) int {
	if n <= 1 {
		return 0
	}
	return int(s.keyHash(1, keys) % uint64(n))
}

// keyHash is 64-bit FNV-1a (hash/fnv's New64a, written out so a draw
// allocates nothing) over the seed's eight little-endian bytes, then each
// key followed by the separator byte.
func (s *Sim) keyHash(sep byte, keys []string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(s.cfg.Seed>>(8*i)))) * prime64
	}
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * prime64
		}
		h = (h ^ uint64(sep)) * prime64
	}
	return h
}

var _ Client = (*Sim)(nil)
