package llm

import (
	"context"
	"hash/maphash"
	"slices"
	"strings"
)

// A prompt is a rope until a model reads it. Callers describe a call as a
// Request — a task and named fields whose values are lists of parts, so a
// batch of documents travels as the documents' own strings — and the
// wrappers between the caller and the model pass that description along.
// The text is rendered (Prompt) only for something that has to read it: a
// base client on a cache miss, the fault injector, a retry's jitter.
// Looking a request up in the response cache hashes and compares its
// parts in place and renders nothing.

// Field is one named prompt field. Its value is Parts joined by DocSep.
type Field struct {
	Name  string
	Parts []string
}

// Text is a field holding one string.
func Text(name, value string) Field { return Field{Name: name, Parts: []string{value}} }

// Docs is a field holding a batch of documents: what JoinDocs would pack,
// left unpacked.
func Docs(name string, docs []string) Field { return Field{Name: name, Parts: docs} }

// body is the immutable description of a request: what a cache key
// retains.
type body struct {
	task   string
	fields []Field // sorted by name
	raw    string  // the whole prompt, when isRaw
	isRaw  bool
}

// Request is one call to a model. It belongs to the call chain it is
// handed down: Prompt memoises without locking.
type Request struct {
	body
	text     string // the rendering, once something has asked for it
	attempts int    // times NextAttempt has been called
}

// NewRequest describes a call to task. Field names must be distinct; the
// request takes ownership of fields and of every Parts slice.
func NewRequest(task string, fields ...Field) *Request {
	slices.SortFunc(fields, func(a, b Field) int { return strings.Compare(a.Name, b.Name) })
	return &Request{body: body{task: task, fields: fields}}
}

// RawRequest wraps an already rendered prompt.
func RawRequest(prompt string) *Request {
	return &Request{body: body{raw: prompt, isRaw: true}}
}

// each hands emit the pieces whose concatenation is the prompt, in the
// directive format prompt.go documents. It is the only writer of that
// format.
func (b *body) each(emit func(string)) {
	if b.isRaw {
		emit(b.raw)
		return
	}
	emit("#TASK ")
	emit(b.task)
	emit("\n")
	for i := range b.fields {
		f := &b.fields[i]
		emit("#FIELD ")
		emit(f.Name)
		emit("\n")
		for j, p := range f.Parts {
			if j > 0 {
				emit(DocSep)
			}
			emit(p)
		}
		emit("\n")
	}
	emit("#END")
}

// Len is the length of the rendered prompt.
func (b *body) Len() int {
	n := 0
	b.each(func(s string) { n += len(s) })
	return n
}

// HashTo streams the rendered prompt's bytes into h without rendering
// them.
func (b *body) HashTo(h *maphash.Hash) {
	b.each(func(s string) { h.WriteString(s) })
}

// render builds the prompt in one exact-sized allocation.
func (b *body) render() string {
	if b.isRaw {
		return b.raw
	}
	var sb strings.Builder
	sb.Grow(b.Len())
	b.each(func(s string) { sb.WriteString(s) })
	return sb.String()
}

// equal reports whether b and o render the same bytes. Requests built the
// same way are compared piece by piece, where strings shared with the
// document store compare by pointer; only requests chunked differently
// are rendered to find out.
func (b *body) equal(o *body) bool {
	if b.samePieces(o) {
		return true
	}
	return b.Len() == o.Len() && b.render() == o.render()
}

func (b *body) samePieces(o *body) bool {
	if b.isRaw != o.isRaw || b.raw != o.raw || b.task != o.task || len(b.fields) != len(o.fields) {
		return false
	}
	for i := range b.fields {
		if b.fields[i].Name != o.fields[i].Name || !slices.Equal(b.fields[i].Parts, o.fields[i].Parts) {
			return false
		}
	}
	return true
}

// Prompt returns the rendered prompt: byte for byte what BuildPrompt
// returns for the same task and fields with every part list joined by
// DocSep.
func (r *Request) Prompt() string {
	if r.text == "" {
		r.text = r.render()
	}
	return r.text
}

// NextAttempt numbers the tries of this one call as they pass the caller:
// 0 for the first, 1 for its first retry or hedge, and so on. The fault
// injector keys its draws by it, so a call's fate depends on the call
// alone and not on how many others carried the same prompt before it.
func (r *Request) NextAttempt() int {
	r.attempts++
	return r.attempts - 1
}

// Equal reports whether r and o render the same prompt.
func (r *Request) Equal(o *Request) bool { return r.equal(&o.body) }

// Task returns TaskOf(r.Prompt()) without rendering.
func (r *Request) Task() string {
	if r.isRaw {
		return TaskOf(r.raw)
	}
	line, _, _ := strings.Cut(r.task, "\n")
	return strings.TrimSpace(line)
}

// Doer is a Client that accepts a Request as it is. Every wrapper in this
// repository is one; a base client — the Sim, HTTPClient, anything handed
// in through WithClients — need not be.
type Doer interface {
	Do(ctx context.Context, req *Request) (Response, error)
}

// Do sends req to c: as it is when c is a Doer, rendered otherwise.
func Do(ctx context.Context, c Client, req *Request) (Response, error) {
	if d, ok := c.(Doer); ok {
		return d.Do(ctx, req)
	}
	return c.Complete(ctx, req.Prompt())
}
