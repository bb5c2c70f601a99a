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
	now := s.tr.now()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.json(now)
}

// json converts s and its descendants. The tree's lock is held.
func (s *Span) json(now time.Duration) *SpanJSON {
	out := &SpanJSON{
		Name:      s.Name,
		Kind:      s.Kind,
		WallMS:    float64(s.wall(now)) / float64(time.Millisecond),
		VTimeSecs: s.vdur.Seconds(),
		Open:      s.flags&flagEnded == 0,
	}
	if n := s.numAttrs(); n > 0 {
		out.Attrs = make(map[string]string, n)
		for i := 0; i < n; i++ {
			a := s.attrAt(i)
			out.Attrs[a.key] = a.value()
		}
	}
	for c := s.first; c != nil; c = c.next {
		out.Children = append(out.Children, c.json(now))
	}
	return out
}

// Render draws the span tree as an indented ASCII tree — the EXPLAIN
// ANALYZE output. Each line shows the span name, its virtual-clock
// duration (the simulated latency the paper reports), its wall-clock
// duration, and its attributes in insertion order.
func Render(s *Span) string {
	if s == nil {
		return ""
	}
	now := s.tr.now()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	var b strings.Builder
	renderSpan(&b, s, now, "", "")
	return b.String()
}

// renderSpan draws s and its descendants. The tree's lock is held.
func renderSpan(b *strings.Builder, s *Span, now time.Duration, selfPrefix, childPrefix string) {
	b.WriteString(selfPrefix)
	b.WriteString(s.Name)
	fmt.Fprintf(b, "  vtime=%s wall=%s", fmtDur(s.vdur), fmtDur(s.wall(now)))
	for i, n := 0, s.numAttrs(); i < n; i++ {
		a := s.attrAt(i)
		fmt.Fprintf(b, " %s=%s", a.key, a.value())
	}
	b.WriteByte('\n')
	for c := s.first; c != nil; c = c.next {
		branch, cont := "├─ ", "│  "
		if c.next == nil {
			branch, cont = "└─ ", "   "
		}
		renderSpan(b, c, now, childPrefix+branch, childPrefix+cont)
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
