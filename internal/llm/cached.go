package llm

import (
	"context"
	"errors"
	"hash/maphash"

	"unify/internal/cache"
)

// Cached wraps a Client with response memoization on a shared cache
// layer, mirroring the inference/prefix caches of real LLM serving
// stacks: identical prompts to the same model are answered once, and
// identical concurrent prompts coalesce onto a single in-flight call.
//
// A cache-served response carries Cached=true and Dur=0 — it costs zero
// virtual time and bypasses the slot pool. Downstream accounting
// (executor vtime units, calibrator feeds) keys off that flag.
type Cached struct {
	inner Client
	layer *cache.Layer[Response]
}

// ResponseCost prices a Response for the shared byte budget.
func ResponseCost(r Response) int64 {
	return int64(len(r.Text)) + 48
}

// NewCached wraps inner over layer. A nil layer yields a pass-through
// wrapper (every call reaches the model).
func NewCached(inner Client, layer *cache.Layer[Response]) *Cached {
	return &Cached{inner: inner, layer: layer}
}

// cacheKey is what the llm layer retains per entry: the model name, so
// planner and worker models wrapped over one layer never collide, and
// the request's parts — document strings the docstore already holds —
// never its rendering. It hashes, compares and is priced as the string
// model + "\x1f" + prompt would be.
type cacheKey struct {
	model string
	body
}

func (k *cacheKey) HashTo(h *maphash.Hash) {
	h.WriteString(k.model)
	h.WriteString("\x1f")
	k.body.HashTo(h)
}

func (k *cacheKey) Equal(other cache.Key) bool {
	o, ok := other.(*cacheKey)
	return ok && o.model == k.model && k.body.equal(&o.body)
}

func (k *cacheKey) Len() int { return len(k.model) + 1 + k.body.Len() }

// Complete implements Client.
func (c *Cached) Complete(ctx context.Context, prompt string) (Response, error) {
	return c.Do(ctx, RawRequest(prompt))
}

// Do implements Doer. A hit renders nothing; a miss hands req on, and
// the prompt is rendered where a model has to read it.
func (c *Cached) Do(ctx context.Context, req *Request) (Response, error) {
	key := &cacheKey{model: c.inner.Profile().Name, body: req.body}
	for {
		led := false
		resp, hit, err := c.layer.GetOrComputeKey(key, func() (Response, error) {
			led = true
			return Do(ctx, c.inner, req)
		})
		if err == nil {
			if hit {
				resp.Cached = true
				resp.Dur = 0
			}
			return resp, nil
		}
		// A call that joined another's in-flight prompt is handed that
		// call's error. When the error is the leader's context giving up
		// and this caller's has not, the prompt is still this caller's to
		// send: look again, and lead unless someone else now does.
		if led || ctx.Err() != nil || !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return Response{}, err
		}
	}
}

// Profile implements Client.
func (c *Cached) Profile() Profile { return c.inner.Profile() }

// Unwrap returns the wrapped client.
func (c *Cached) Unwrap() Client { return c.inner }

// Stats snapshots the wrapper's cache layer.
func (c *Cached) Stats() cache.Stats { return c.layer.Stats() }

var _ Client = (*Cached)(nil)

// Unwrap walks one level of client wrapping (Cached, Recorder, Traced).
func Unwrap(c Client) Client {
	type unwrapper interface{ Unwrap() Client }
	if u, ok := c.(unwrapper); ok {
		return u.Unwrap()
	}
	return nil
}

// SimOf walks the wrapper chain and returns the underlying Sim, or nil
// when the base client is not a Sim.
func SimOf(c Client) *Sim {
	for c != nil {
		if s, ok := c.(*Sim); ok {
			return s
		}
		c = Unwrap(c)
	}
	return nil
}
