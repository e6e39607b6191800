// Package obs is the observability layer of the stack: a stdlib-only
// metrics registry (counters, gauges and fixed-bucket histograms with
// Prometheus text-format exposition) plus lightweight stage tracing (span
// start/stop with labels, exportable to the Chrome trace-event format the
// accelerator simulator already emits).
//
// The design constraint is the hot path: PR 4 pinned the neuron fire and
// the serving round trip at zero heap allocations per operation, and
// instrumentation must not give that back. Every instrument is therefore a
// pre-registered handle — name and labels are resolved once, at
// registration — and every observation is a handful of atomic operations:
// Counter.Add is one atomic add, Histogram.Observe is a bucket scan plus
// three atomic updates, and no observation ever allocates. Exposition and
// trace export are cold paths and may allocate freely.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" pair attached to a metric series or a span.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer counter.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone (unregistered) counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float counter (energy joules,
// seconds of work). Add is a CAS loop on the float's bit pattern, so it is
// safe for concurrent use and never allocates.
type FloatCounter struct {
	bits atomic.Uint64
}

// NewFloatCounter returns a standalone (unregistered) float counter.
func NewFloatCounter() *FloatCounter { return &FloatCounter{} }

// Add adds delta.
func (c *FloatCounter) Add(delta float64) {
	for {
		old := c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone (unregistered) gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket-layout distribution: bucket upper bounds are
// chosen at construction, and Observe is a scan over them plus atomic
// updates to the matching bucket, the count and the sum — no allocation, no
// lock. Exposition renders the Prometheus cumulative form.
type Histogram struct {
	bounds []float64 // sorted upper bounds; the +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    FloatCounter
}

// NewHistogram returns a standalone histogram over the given bucket upper
// bounds, which must be sorted ascending and non-empty.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := len(h.bounds) // +Inf bucket
	for b, ub := range h.bounds {
		if v <= ub {
			i = b
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Buckets returns the bucket upper bounds (shared; callers must not modify
// them) and a fresh copy of each bucket's count, not cumulative. counts has
// one entry more than bounds: the last is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// ExpBuckets returns n bucket bounds growing geometrically from start by
// factor — the standard latency layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind discriminates the series payload.
type metricKind int

const (
	kindCounter metricKind = iota
	kindFloatCounter
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindFloatCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	}
	return "histogram"
}

// series is one registered (name, labels) time series.
type series struct {
	name   string
	labels string // pre-rendered {k="v",...} body without braces, "" when unlabeled
	kind   metricKind

	counter  *Counter
	fcounter *FloatCounter
	gauge    *Gauge
	gaugeFn  func() float64
	hist     *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds named metric series and renders them in the Prometheus
// text exposition format. Registration is idempotent: asking for a series
// that already exists with the same type returns the existing handle, so
// independent components can share a registry without coordination.
// Registration takes a lock; the returned handles never do.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	common   []Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetCommonLabels appends the given labels to every series registered from
// now on — the fleet uses it to stamp a replica identity onto every metric a
// server exposes, so scrapes from many replicas aggregate without relabeling.
// Call it before instruments are registered: series that already exist keep
// the labels they were created with.
func (r *Registry) SetCommonLabels(labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.common = append([]Label(nil), labels...)
}

// lookup finds or creates the (name, labels) series of the given kind and
// runs init on it while still holding r.mu, so instrument creation and the
// check-and-assign of the instrument field are atomic with the series
// lookup — two goroutines racing to register the same series always end up
// sharing one instrument handle. Type conflicts on a name are programmer
// errors and panic.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, init func(*series)) *series {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.common) > 0 {
		labels = append(append([]Label(nil), labels...), r.common...)
	}
	lbl := renderLabels(labels)
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, fam.kind.promType(), kind.promType()))
	}
	s := (*series)(nil)
	for _, have := range fam.series {
		if have.labels == lbl {
			s = have
			break
		}
	}
	if s == nil {
		s = &series{name: name, labels: lbl, kind: kind}
		fam.series = append(fam.series, s)
	}
	init(s)
	return s
}

// Counter registers (or finds) an integer counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels, func(s *series) {
		if s.counter == nil {
			s.counter = NewCounter()
		}
	})
	return s.counter
}

// FloatCounter registers (or finds) a float counter series.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	s := r.lookup(name, help, kindFloatCounter, labels, func(s *series) {
		if s.fcounter == nil {
			s.fcounter = NewFloatCounter()
		}
	})
	return s.fcounter
}

// Gauge registers (or finds) a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels, func(s *series) {
		if s.gauge == nil {
			s.gauge = NewGauge()
		}
	})
	return s.gauge
}

// GaugeFunc registers a gauge series whose value is sampled from fn at
// exposition time — the natural shape for instantaneous state owned
// elsewhere (queue depth, uptime). Re-registering the same series replaces
// the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, kindGaugeFunc, labels, func(s *series) {
		s.gaugeFn = fn
	})
}

// Histogram registers (or finds) a histogram series with the given fixed
// bucket bounds. A pre-existing series keeps its original layout.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels, func(s *series) {
		if s.hist == nil {
			s.hist = NewHistogram(bounds)
		}
	})
	return s.hist
}

// mustValidName panics unless name is a valid Prometheus metric name.
func mustValidName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// renderLabels pre-renders a label set as `k1="v1",k2="v2"` with keys in
// sorted order, so identical sets always produce identical series keys.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if l.Key == "" {
			panic("obs: empty label key")
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
