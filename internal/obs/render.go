package obs

import (
	"fmt"
	"strings"
	"time"
)

// SpanJSON is the wire form of a span tree, returned by the server's
// EXPLAIN ANALYZE variant (/v1/query?analyze=1).
type SpanJSON struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind,omitempty"`
	WallMS    float64 `json:"wall_ms"`
	VTimeSecs float64 `json:"vtime_secs"`
	// Open marks a span that was never ended when the tree was
	// converted; its wall_ms is only the time elapsed until then.
	Open     bool              `json:"open,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanJSON       `json:"children,omitempty"`
}

// JSON converts the span tree into its wire form (nil for a nil span).
func (s *Span) JSON() *SpanJSON {
	if s == nil {
		return nil
	}
	out, children := s.jsonSelf()
	if len(children) > 0 {
		out.Children = make([]*SpanJSON, len(children))
		for i, c := range children {
			out.Children[i] = c.JSON()
		}
	}
	return out
}

// jsonSelf converts one span, without its children, and returns them as
// they stood: one lock, and no copy of the list (see kids).
func (s *Span) jsonSelf() (*SpanJSON, []*Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wall := s.end.Sub(s.start)
	if s.end.IsZero() {
		wall = time.Since(s.start)
	}
	out := &SpanJSON{
		Name:      s.Name,
		Kind:      s.Kind,
		WallMS:    float64(wall) / float64(time.Millisecond),
		VTimeSecs: s.vdur.Seconds(),
		Open:      s.end.IsZero(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	return out, s.kidsLocked()
}

// kids returns the child list as it stands, without copying it: children
// are only ever appended, so the elements below the length read under the
// lock never change.
func (s *Span) kids() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kidsLocked()
}

func (s *Span) kidsLocked() []*Span { return s.children[:len(s.children):len(s.children)] }

// size counts the spans of the tree rooted at s.
func (s *Span) size() int {
	n := 1
	for _, c := range s.kids() {
		n += c.size()
	}
	return n
}

// Render draws the span tree as an indented ASCII tree — the EXPLAIN
// ANALYZE output. Each line shows the span name, its virtual-clock
// duration (the simulated latency the paper reports), its wall-clock
// duration, and its attributes in insertion order.
func Render(s *Span) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	renderSpan(&b, s, "", "")
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, selfPrefix, childPrefix string) {
	b.WriteString(selfPrefix)
	b.WriteString(s.Name)
	fmt.Fprintf(b, "  vtime=%s wall=%s", fmtDur(s.VDur()), fmtDur(s.WallDur()))
	for _, a := range s.Attrs() {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	children := s.Children()
	for i, c := range children {
		last := i == len(children)-1
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		renderSpan(b, c, childPrefix+branch, childPrefix+cont)
	}
}

// fmtDur renders durations compactly with sub-second precision only
// where it matters.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0s"
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fm", d.Minutes())
	}
}
