package faults

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"unify/internal/llm"
)

// echo is a minimal deterministic backend.
type echo struct {
	mu    sync.Mutex
	calls int
}

func (e *echo) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	e.mu.Lock()
	e.calls++
	e.mu.Unlock()
	return llm.Response{Text: "yes yes no", Dur: time.Second, OutTokens: 3}, nil
}

func (e *echo) Profile() llm.Profile {
	return llm.Profile{Name: "echo", Base: 200 * time.Millisecond}
}

func prompt(task string, i int) string {
	return llm.BuildPrompt(task, map[string]string{"doc": fmt.Sprintf("doc %d", i)})
}

// run sends n filter_doc prompts through a fresh injector built from the
// plan and returns the per-call outcomes as a signature string.
func run(t *testing.T, plan *Plan, n int) (string, *Client, *echo) {
	t.Helper()
	backend := &echo{}
	c := New(backend, plan)
	var sig strings.Builder
	for i := 0; i < n; i++ {
		resp, err := c.Complete(context.Background(), prompt("filter_doc", i))
		switch {
		case err != nil:
			var fe *Error
			if !errors.As(err, &fe) {
				t.Fatalf("call %d: non-fault error %v", i, err)
			}
			fmt.Fprintf(&sig, "%s;", fe.Kind)
		default:
			fmt.Fprintf(&sig, "ok(%v,%q);", resp.Dur, resp.Text)
		}
	}
	return sig.String(), c, backend
}

func TestInjectionDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		plan := Uniform(kind, 0.3, 99, "filter_doc")
		a, ca, _ := run(t, plan, 200)
		b, cb, _ := run(t, plan, 200)
		if a != b {
			t.Errorf("%s: same plan produced different outcomes", kind)
		}
		if ca.Injected() != cb.Injected() {
			t.Errorf("%s: injected %d vs %d", kind, ca.Injected(), cb.Injected())
		}
		if ca.Injected() == 0 {
			t.Errorf("%s: nothing injected at rate 0.3 over 200 calls", kind)
		}
	}
}

func TestSeedChangesDraws(t *testing.T) {
	a, _, _ := run(t, Uniform(Transient, 0.3, 1, "filter_doc"), 200)
	b, _, _ := run(t, Uniform(Transient, 0.3, 2, "filter_doc"), 200)
	if a == b {
		t.Error("different seeds produced identical fault patterns")
	}
}

func TestRetriesDrawFresh(t *testing.T) {
	// A draw is keyed by the call and its try. A new call carrying the
	// same prompt meets the first call's fate, however many calls came
	// between; the second try of one call is a decision of its own.
	c := New(&echo{}, Uniform(Transient, 0.5, 7, "filter_doc"))
	ctx := context.Background()
	faulted := func(req *llm.Request) bool {
		_, err := c.Do(ctx, req)
		return err != nil
	}
	retryDiffers := 0
	for i := 0; i < 64; i++ {
		p := prompt("filter_doc", i)
		first := llm.RawRequest(p)
		try0, try1 := faulted(first), faulted(first)
		if again := faulted(llm.RawRequest(p)); again != try0 {
			t.Fatalf("prompt %d: first try faulted=%v, the same call made anew faulted=%v", i, try0, again)
		}
		if try1 != try0 {
			retryDiffers++
		}
	}
	if retryDiffers == 0 {
		t.Error("the retry repeated the first try's fate for all 64 prompts: retries do not draw fresh")
	}
}

func TestTransientFault(t *testing.T) {
	backend := &echo{}
	c := New(backend, Uniform(Transient, 1, 3, "filter_doc"))
	_, err := c.Complete(context.Background(), prompt("filter_doc", 0))
	if !errors.Is(err, llm.ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	if !llm.IsTransient(err) {
		t.Error("transient fault must be retryable")
	}
	if backend.calls != 0 {
		t.Error("transient fault must not reach the backend")
	}
	if d := llm.FaultDurOf(err, backend.Profile()); d != backend.Profile().Base {
		t.Errorf("fault dur = %v, want one base round trip", d)
	}
}

func TestTimeoutFault(t *testing.T) {
	plan := &Plan{Seed: 3, Rules: []Rule{{Kind: Timeout, Rate: 1, Tasks: []string{"filter_doc"}, Latency: 5 * time.Second}}}
	c := New(&echo{}, plan)
	_, err := c.Complete(context.Background(), prompt("filter_doc", 0))
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, llm.ErrTransient) {
		t.Fatalf("err = %v, want deadline-exceeded transient", err)
	}
	if d := llm.FaultDurOf(err, llm.Profile{Base: time.Millisecond}); d != 5*time.Second {
		t.Errorf("timeout must cost its full deadline, got %v", d)
	}
}

func TestSlowFault(t *testing.T) {
	plan := &Plan{Seed: 3, Rules: []Rule{{Kind: Slow, Rate: 1, Tasks: []string{"filter_doc"}, Factor: 4}}}
	c := New(&echo{}, plan)
	resp, err := c.Complete(context.Background(), prompt("filter_doc", 0))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Dur != 4*time.Second {
		t.Errorf("dur = %v, want 4x", resp.Dur)
	}
	if resp.Text != "yes yes no" {
		t.Error("slow faults must not corrupt the response")
	}
}

func TestSlowFaultSkipsCachedResponses(t *testing.T) {
	cachedBackend := clientFunc(func(ctx context.Context, p string) (llm.Response, error) {
		return llm.Response{Text: "hit", Cached: true}, nil
	})
	c := New(cachedBackend, Uniform(Slow, 1, 3, "filter_doc"))
	resp, err := c.Complete(context.Background(), prompt("filter_doc", 0))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Dur != 0 || c.Injected() != 0 {
		t.Errorf("cache hits must dodge slow faults: dur=%v injected=%d", resp.Dur, c.Injected())
	}
}

func TestGarbageFault(t *testing.T) {
	c := New(&echo{}, Uniform(Garbage, 1, 3, "filter_doc"))
	resp, err := c.Complete(context.Background(), prompt("filter_doc", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "garbled") || resp.Text == "yes yes no" {
		t.Errorf("text = %q, want corrupted", resp.Text)
	}
}

func TestTaskScoping(t *testing.T) {
	c := New(&echo{}, Uniform(Transient, 1, 3, "classify_doc"))
	if _, err := c.Complete(context.Background(), prompt("filter_doc", 0)); err != nil {
		t.Errorf("rule for classify_doc hit filter_doc: %v", err)
	}
	if _, err := c.Complete(context.Background(), prompt("classify_doc", 0)); err == nil {
		t.Error("rule for classify_doc missed classify_doc")
	}
}

func TestNilPlanPassesThrough(t *testing.T) {
	backend := &echo{}
	c := New(backend, nil)
	resp, err := c.Complete(context.Background(), prompt("filter_doc", 0))
	if err != nil || resp.Text != "yes yes no" {
		t.Errorf("pass-through broken: %v %q", err, resp.Text)
	}
	if c.Injected() != 0 {
		t.Error("nil plan injected faults")
	}
}

// clientFunc adapts a function to llm.Client.
type clientFunc func(context.Context, string) (llm.Response, error)

func (f clientFunc) Complete(ctx context.Context, p string) (llm.Response, error) { return f(ctx, p) }
func (f clientFunc) Profile() llm.Profile                                         { return llm.Profile{Name: "func"} }

func TestInjectionRateApproximatesTarget(t *testing.T) {
	const n, rate = 2000, 0.10
	_, c, _ := run(t, Uniform(Transient, rate, 11, "filter_doc"), n)
	got := float64(c.Injected()) / n
	if got < 0.07 || got > 0.13 {
		t.Errorf("observed rate %.3f, want ~%.2f", got, rate)
	}
}
