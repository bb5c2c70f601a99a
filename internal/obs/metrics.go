package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MetricType enumerates the registry's instrument kinds.
type MetricType int

// Instrument kinds, mirroring the Prometheus exposition types.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds named metrics and renders them as Prometheus text
// exposition or a JSON-friendly snapshot. All operations are safe for
// concurrent use; instrument handles are cheap to copy and update with a
// single short critical section. A nil *Registry hands out nil handles
// whose methods no-op, so metrics can be disabled wholesale.
//
// A metric gets its series one of two ways, never both: instruments push
// into it (Counter, Gauge, Histogram), or a function registered with Func
// produces them each time the registry is read. Every read — text,
// snapshot or single value — goes through metric.read.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string
}

type metric struct {
	name    string
	help    string
	typ     MetricType
	label   string            // optional single label name ("" = unlabeled)
	buckets []float64         // histogram upper bounds (ascending)
	info    map[string]string // constant info-style gauge labels (Info)
	// fn produces the series of a read-time metric (Func); nil for a
	// pushed one.
	fn func(emit func(labelVal string, v float64))

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	val    float64  // counter / gauge value
	counts []uint64 // histogram per-bucket counts (cumulative on render)
	sum    float64
	count  uint64
	ex     []exemplar // histogram per-bucket exemplars; index len(buckets) is +Inf
}

// exemplar links a histogram bucket to the request that produced its
// largest sample, so a slow latency bucket resolves to a stored trace.
type exemplar struct {
	id  string
	val float64
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// register adds m under its name, or returns the metric already
// registered there (idempotent re-registration: the first one wins).
func (r *Registry) register(m *metric) *metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[m.name]; ok {
		return old
	}
	m.series = map[string]*series{}
	r.metrics[m.name] = m
	r.order = append(r.order, m.name)
	return m
}

func (m *metric) get(labelVal string) *series {
	s, ok := m.series[labelVal]
	if !ok {
		s = &series{}
		if m.typ == TypeHistogram {
			s.counts = make([]uint64, len(m.buckets))
		}
		m.series[labelVal] = s
	}
	return s
}

// read returns the metric's series as they stand now, keyed by label
// value: a copy of what was pushed, or what fn emits. fn runs with neither
// the registry's nor the metric's lock held, so the component it reads may
// take its own lock: the order is always registry, then owner, and an
// owner never calls the registry.
func (m *metric) read() map[string]series {
	out := map[string]series{}
	if m.fn != nil {
		m.fn(func(labelVal string, v float64) { out[labelVal] = series{val: v} })
	} else {
		m.mu.Lock()
		for k, s := range m.series {
			c := *s
			c.counts = append([]uint64(nil), s.counts...)
			c.ex = append([]exemplar(nil), s.ex...)
			out[k] = c
		}
		m.mu.Unlock()
	}
	return out
}

// labelValues returns the label values of what read returned, sorted.
// Rendering in sorted order matters: first-seen label order depends on
// goroutine interleaving under concurrent queries, and a map has none.
func labelValues(vals map[string]series) []string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scalar is the single number a series stands for: a counter's or gauge's
// value, a histogram's observation count.
func (s series) scalar(typ MetricType) float64 {
	if typ == TypeHistogram {
		return float64(s.count)
	}
	return s.val
}

// Func registers a read-time counter or gauge: read is called every time
// the registry is rendered or queried and the series it emits (labelVal ""
// for an unlabeled metric; emitting nothing renders HELP/TYPE only) are
// the metric's series at that moment. The number keeps its one owner —
// whatever read consults — and the registry holds no copy of it that
// could go stale. read must be safe for concurrent use and must not call
// back into the registry.
func (r *Registry) Func(name, help string, typ MetricType, label string, read func(emit func(labelVal string, v float64))) {
	r.register(&metric{name: name, help: help, typ: typ, label: label, fn: read})
}

// Counter is a monotonically increasing value, optionally labeled.
type Counter struct{ m *metric }

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.register(&metric{name: name, help: help, typ: TypeCounter})}
}

// CounterVec registers (or returns) a counter keyed by one label.
func (r *Registry) CounterVec(name, help, label string) Counter {
	return Counter{r.register(&metric{name: name, help: help, typ: TypeCounter, label: label})}
}

// Inc adds one to the unlabeled series.
func (c Counter) Inc() { c.Add(1) }

// Add adds v to the unlabeled series.
func (c Counter) Add(v float64) { c.AddL("", v) }

// IncL adds one to the series for the given label value.
func (c Counter) IncL(labelVal string) { c.AddL(labelVal, 1) }

// AddL adds v to the series for the given label value.
func (c Counter) AddL(labelVal string, v float64) {
	if c.m == nil || v < 0 {
		return
	}
	c.m.mu.Lock()
	c.m.get(labelVal).val += v
	c.m.mu.Unlock()
}

// Gauge is a value that can go up and down.
type Gauge struct{ m *metric }

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	return Gauge{r.register(&metric{name: name, help: help, typ: TypeGauge})}
}

// Set replaces the gauge value.
func (g Gauge) Set(v float64) {
	if g.m == nil {
		return
	}
	g.m.mu.Lock()
	g.m.get("").val = v
	g.m.mu.Unlock()
}

// Histogram accumulates observations into fixed buckets.
type Histogram struct{ m *metric }

// DurationBuckets are the default latency buckets (seconds of simulated
// time): query latencies in the paper's figures span seconds to minutes.
var DurationBuckets = []float64{0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// Histogram registers (or returns) an unlabeled histogram with the given
// ascending upper bounds (DurationBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	if len(buckets) == 0 {
		buckets = DurationBuckets
	}
	return Histogram{r.register(&metric{name: name, help: help, typ: TypeHistogram,
		buckets: append([]float64(nil), buckets...)})}
}

// Observe records one observation.
func (h Histogram) Observe(v float64) { h.ObserveEx(v, "") }

// ObserveEx records one observation tagged with an exemplar id
// (typically the request id). Each bucket — including the implicit +Inf
// overflow — remembers the id of its largest sample, so a hot latency
// bucket links back to a concrete stored trace. An empty id records no
// exemplar.
func (h Histogram) ObserveEx(v float64, exemplarID string) {
	if h.m == nil {
		return
	}
	h.m.mu.Lock()
	s := h.m.get("")
	idx := len(h.m.buckets) // +Inf overflow slot
	for i, ub := range h.m.buckets {
		if v <= ub {
			s.counts[i]++
			idx = i
			break
		}
	}
	s.sum += v
	s.count++
	if exemplarID != "" {
		if s.ex == nil {
			s.ex = make([]exemplar, len(h.m.buckets)+1)
		}
		if s.ex[idx].id == "" || v > s.ex[idx].val {
			s.ex[idx] = exemplar{id: exemplarID, val: v}
		}
	}
	h.m.mu.Unlock()
}

// ObserveDur records a duration in seconds.
func (h Histogram) ObserveDur(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveDurEx records a duration in seconds with an exemplar id.
func (h Histogram) ObserveDurEx(d time.Duration, exemplarID string) {
	h.ObserveEx(d.Seconds(), exemplarID)
}

// Info registers a constant info-style gauge (value 1) carrying a fixed
// multi-label set — the Prometheus *_info / build_info convention.
// Re-registration with the same name is a no-op (the first label set
// wins), keeping it safe to call from every constructor.
func (r *Registry) Info(name, help string, labels map[string]string) {
	info := make(map[string]string, len(labels))
	for k, v := range labels {
		info[k] = v
	}
	r.register(&metric{name: name, help: help, typ: TypeGauge, info: info})
}

// lookup returns the named metric, or nil.
func (r *Registry) lookup(name string) *metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// all returns every metric in registration order.
func (r *Registry) all() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.order))
	for i, n := range r.order {
		out[i] = r.metrics[n]
	}
	return out
}

// Value returns the current value of a counter/gauge series (labelVal ""
// for unlabeled), or a histogram's observation count. Missing metrics or
// series return 0.
func (r *Registry) Value(name, labelVal string) float64 {
	m := r.lookup(name)
	if m == nil {
		return 0
	}
	if m.info != nil {
		return 1
	}
	return m.read()[labelVal].scalar(m.typ)
}

// HistogramSum returns the sum of all observations recorded by an
// unlabeled histogram (0 when absent).
func (r *Registry) HistogramSum(name string) float64 {
	m := r.lookup(name)
	if m == nil || m.typ != TypeHistogram {
		return 0
	}
	return m.read()[""].sum
}

// MaxExemplar returns the exemplar with the greatest observed value
// across an unlabeled histogram's buckets ("" when none was recorded).
func (r *Registry) MaxExemplar(name string) (id string, val float64) {
	m := r.lookup(name)
	if m == nil || m.typ != TypeHistogram {
		return "", 0
	}
	for _, e := range m.read()[""].ex {
		if e.id != "" && (id == "" || e.val > val) {
			id, val = e.id, e.val
		}
	}
	return id, val
}

// Total sums every series of a metric (counters/gauges).
func (r *Registry) Total(name string) float64 {
	m := r.lookup(name)
	if m == nil {
		return 0
	}
	var t float64
	for _, s := range m.read() {
		t += s.scalar(m.typ)
	}
	return t
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), in registration order with label values sorted.
// Each metric is read before any of it is written, so a slow writer never
// holds a lock an instrument needs.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, m := range r.all() {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		if m.info != nil {
			// Constant info gauge: one series, all labels, value 1.
			// Sorted label keys keep the output byte-deterministic.
			ks := make([]string, 0, len(m.info))
			for k := range m.info {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			parts := make([]string, len(ks))
			for i, k := range ks {
				parts[i] = fmt.Sprintf("%s=%q", k, escapeLabel(m.info[k]))
			}
			fmt.Fprintf(w, "%s{%s} 1\n", m.name, strings.Join(parts, ","))
			continue
		}
		vals := m.read()
		for _, key := range labelValues(vals) {
			s := vals[key]
			label := ""
			if m.label != "" {
				label = fmt.Sprintf("{%s=%q}", m.label, escapeLabel(key))
			}
			switch m.typ {
			case TypeHistogram:
				cum := uint64(0)
				for i, ub := range m.buckets {
					cum += s.counts[i]
					fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(ub), cum)
				}
				fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, s.count)
				fmt.Fprintf(w, "%s_sum %s\n", m.name, formatFloat(s.sum))
				fmt.Fprintf(w, "%s_count %d\n", m.name, s.count)
			default:
				fmt.Fprintf(w, "%s%s %s\n", m.name, label, formatFloat(s.val))
			}
		}
	}
}

// Snapshot returns a JSON-friendly view of the registry: metric name →
// value (unlabeled) or label-value map (labeled); histograms expose
// count, sum, and per-bucket counts. It is a read path: a metric with no
// series reports zeros and gains no series by being looked at.
func (r *Registry) Snapshot() map[string]interface{} {
	out := map[string]interface{}{}
	for _, m := range r.all() {
		if m.info != nil {
			labels := make(map[string]string, len(m.info))
			for k, v := range m.info {
				labels[k] = v
			}
			out[m.name] = labels
			continue
		}
		vals := m.read()
		switch {
		case m.typ == TypeHistogram:
			s := vals[""] // the zero series when nothing was observed
			buckets := map[string]uint64{}
			cum := uint64(0)
			for j, ub := range m.buckets {
				if j < len(s.counts) {
					cum += s.counts[j]
				}
				buckets["le_"+formatFloat(ub)] = cum
			}
			hv := map[string]interface{}{
				"count": s.count, "sum": s.sum, "buckets": buckets,
			}
			exs := map[string]interface{}{}
			for j, e := range s.ex {
				if e.id == "" {
					continue
				}
				le := "+Inf"
				if j < len(m.buckets) {
					le = formatFloat(m.buckets[j])
				}
				exs["le_"+le] = map[string]interface{}{
					"request_id": e.id, "value": e.val,
				}
			}
			if len(exs) > 0 {
				hv["exemplars"] = exs
			}
			out[m.name] = hv
		case m.label != "":
			labeled := make(map[string]float64, len(vals))
			for k, s := range vals {
				labeled[k] = s.val
			}
			out[m.name] = labeled
		default:
			out[m.name] = vals[""].val
		}
	}
	return out
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// LabelValues returns a metric's label values, sorted.
func (r *Registry) LabelValues(name string) []string {
	m := r.lookup(name)
	if m == nil {
		return nil
	}
	return labelValues(m.read())
}
