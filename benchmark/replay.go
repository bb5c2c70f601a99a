package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"unify/internal/llm"
)

// errReplayMiss marks a prompt that strict replay had never recorded.
var errReplayMiss = errors.New("benchmark: strict replay miss")

// replayClient is a record-then-replay llm.Client. While recording it
// forwards unseen prompts to the inner client and remembers the reply;
// once strict, a recorded prompt is answered from memory at zero wall
// cost and an unseen one is an error, so the inner model provably does
// nothing. It reports the inner client's Profile, so virtual-time
// accounting is unchanged.
type replayClient struct {
	inner  llm.Client
	mu     sync.RWMutex
	seen   map[string]llm.Response
	strict atomic.Bool
	misses atomic.Int64
}

func newReplay(inner llm.Client) *replayClient {
	return &replayClient{inner: inner, seen: make(map[string]llm.Response)}
}

// Complete implements llm.Client.
func (r *replayClient) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	r.mu.RLock()
	resp, ok := r.seen[prompt]
	r.mu.RUnlock()
	if ok {
		return resp, nil
	}
	if r.strict.Load() {
		r.misses.Add(1)
		return llm.Response{}, errReplayMiss
	}
	resp, err := r.inner.Complete(ctx, prompt)
	if err != nil {
		return resp, err
	}
	r.mu.Lock()
	r.seen[prompt] = resp
	r.mu.Unlock()
	return resp, nil
}

// Profile implements llm.Client.
func (r *replayClient) Profile() llm.Profile { return r.inner.Profile() }
