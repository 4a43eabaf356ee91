// Package obs is the shared telemetry runtime every layer of the
// simulated cluster is instrumented with: a metric registry
// (counters/gauges/histograms), a span tracer with causal parent links
// (trace.go), and a Kubernetes-style event recorder (events.go). All
// timestamps are virtual — read from the owning sim.Env clock — so a
// seeded run produces a byte-identical telemetry stream.
//
// The runtime is nil-tolerant end to end: a nil *Runtime hands out nil
// handles, and every handle method no-ops on a nil receiver. Call sites
// therefore instrument unconditionally; "observability off" is just a
// nil runtime (the lever BenchmarkFig9Obs/on and /off compare).
//
// Counters and gauges are atomics so snapshot reads like
// Sched.Stats() are safe from outside the env goroutine
// while the control loops run. The tracer and event log are env-confined
// (single writer) and meant to be read once the run has stopped.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"kubeshare/internal/sim"
)

// Runtime bundles the registry, tracer and event log for one simulated
// cluster. One Runtime is shared by every component of a cluster so
// cross-layer series land in a single namespace and one causal trace.
type Runtime struct {
	env    *sim.Env
	reg    *Registry
	tracer *Tracer

	events paged[EventRecord]
	msgs   texts
}

// New creates an enabled runtime on env's virtual clock.
func New(env *sim.Env) *Runtime {
	r := &Runtime{
		env:    env,
		reg:    newRegistry(),
		tracer: newTracer(env),
	}
	// The drop counter registers on first drop, not eagerly: runs that
	// never hit the span cap (every golden run) keep their metric
	// namespace byte-identical to before the cap existed.
	r.tracer.onDrop = func() {
		r.reg.Counter("kubeshare_obs_spans_dropped_total").Inc()
	}
	return r
}

// Registry returns the metric registry, or nil on a disabled runtime.
func (r *Runtime) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Tracer returns the span tracer, or nil on a disabled runtime.
func (r *Runtime) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Counter fetches or registers the named counter.
func (r *Runtime) Counter(name string) *Counter { return r.Registry().Counter(name) }

// Gauge fetches or registers the named gauge.
func (r *Runtime) Gauge(name string) *Gauge { return r.Registry().Gauge(name) }

// Histogram fetches or registers the named duration histogram.
func (r *Runtime) Histogram(name string) *Histogram { return r.Registry().Histogram(name) }

// Snapshot captures the registry; zero value on a disabled runtime.
func (r *Runtime) Snapshot() MetricsSnapshot {
	if r == nil {
		return MetricsSnapshot{}
	}
	return r.reg.Snapshot()
}

// Registry owns the metric namespace. Handles are registered on first
// use and cached by the instrumented components; registration takes a
// lock, updates are lock-free atomics. Flat metrics (no labels) live in
// the maps here; labeled families (see labels.go) are interned per name
// in the vec registries.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram

	ctrVecs   vecRegistry
	floatVecs vecRegistry
	histVecs  vecRegistry
}

func newRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter fetches or registers a monotonically increasing counter.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.ctrs[name]
	if c == nil {
		c = &Counter{}
		g.ctrs[name] = c
	}
	return c
}

// Gauge fetches or registers an integer-valued gauge.
func (g *Registry) Gauge(name string) *Gauge {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.gauges[name]
	if v == nil {
		v = &Gauge{}
		g.gauges[name] = v
	}
	return v
}

// Histogram fetches or registers a duration histogram over the default
// exponential latency buckets.
func (g *Registry) Histogram(name string) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.hists[name]
	if h == nil {
		h = newHistogram(defaultBounds())
		g.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value reads the current count; 0 on a nil handle.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// FloatGauge is a float instantaneous value (ratios: utilization, token
// shares, fairness indices). Stored as float64 bits in an atomic.
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the gauge; 0 on a nil handle.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge is an integer instantaneous value (queue depths, active watches).
type Gauge struct{ n atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.n.Store(v)
	}
}

// Value reads the gauge; 0 on a nil handle.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// Histogram accumulates duration observations into exponential buckets.
// Bounds are upper bounds in seconds; one extra overflow bucket catches
// the tail. Sum/count allow exact means, Quantile interpolates.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// defaultBounds covers 1ms .. ~524s doubling per bucket — wide enough
// for bind latencies (~100ms), scheduling waits (seconds under load) and
// token waits (ms to minutes under heavy sharing).
func defaultBounds() []float64 {
	b := make([]float64, 20)
	v := 0.001
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records a value in seconds.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot captures the histogram state.
func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   name,
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// CounterValue is one counter in a snapshot. Labels is nil for flat
// counters and carries the child's label set for labeled families.
type CounterValue struct {
	Name   string
	Labels []Label
	Value  int64
}

// GaugeValue is one gauge in a snapshot (integer gauges are flat: no labels).
type GaugeValue struct {
	Name  string
	Value int64
}

// FloatGaugeValue is one float gauge in a snapshot.
type FloatGaugeValue struct {
	Name   string
	Labels []Label
	Value  float64
}

// HistogramSnapshot is one histogram in a snapshot. Counts has one entry
// per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Name   string
	Labels []Label
	Count  int64
	Sum    float64
	Bounds []float64
	Counts []int64
}

// Mean returns the exact mean of all observations in seconds.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (0..1) in seconds by linear
// interpolation within the bucket holding the target rank; observations
// in the overflow bucket report the largest bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if float64(cum) < target || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		frac := (target - float64(prev)) / float64(c)
		return lo + (h.Bounds[i]-lo)*frac
	}
	return h.Bounds[len(h.Bounds)-1]
}

// MetricsSnapshot is a point-in-time copy of the registry, sorted by
// metric name (then label values) so serialization is deterministic.
// Labeled families contribute one entry per child.
type MetricsSnapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Floats     []FloatGaugeValue
	Histograms []HistogramSnapshot
}

// Snapshot captures every registered metric, flat and labeled, sorted by
// name then label values.
func (g *Registry) Snapshot() MetricsSnapshot {
	if g == nil {
		return MetricsSnapshot{}
	}
	var s MetricsSnapshot
	g.mu.Lock()
	for name, c := range g.ctrs {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, v := range g.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: v.Value()})
	}
	for name, h := range g.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	g.mu.Unlock()
	g.ctrVecs.visit(func(v any) {
		f := v.(*CounterVec).f
		f.mu.Lock()
		for _, key := range f.sortedKeys() {
			s.Counters = append(s.Counters, CounterValue{
				Name: f.name, Labels: f.labelsFor(key),
				Value: f.children[key].(*Counter).Value(),
			})
		}
		f.mu.Unlock()
	})
	g.floatVecs.visit(func(v any) {
		f := v.(*FloatGaugeVec).f
		f.mu.Lock()
		for _, key := range f.sortedKeys() {
			s.Floats = append(s.Floats, FloatGaugeValue{
				Name: f.name, Labels: f.labelsFor(key),
				Value: f.children[key].(*FloatGauge).Value(),
			})
		}
		f.mu.Unlock()
	})
	g.histVecs.visit(func(v any) {
		f := v.(*HistogramVec).f
		f.mu.Lock()
		for _, key := range f.sortedKeys() {
			hs := f.children[key].(*Histogram).snapshot(f.name)
			hs.Labels = f.labelsFor(key)
			s.Histograms = append(s.Histograms, hs)
		}
		f.mu.Unlock()
	})
	byID := func(n1 string, l1 []Label, n2 string, l2 []Label) bool {
		if n1 != n2 {
			return n1 < n2
		}
		return FormatLabels(l1) < FormatLabels(l2)
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return byID(s.Counters[i].Name, s.Counters[i].Labels, s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Floats, func(i, j int) bool {
		return byID(s.Floats[i].Name, s.Floats[i].Labels, s.Floats[j].Name, s.Floats[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return byID(s.Histograms[i].Name, s.Histograms[i].Labels, s.Histograms[j].Name, s.Histograms[j].Labels)
	})
	return s
}

// visit calls fn for every registered vec in name order.
func (r *vecRegistry) visit(fn func(any)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.vecs))
	for n := range r.vecs {
		names = append(names, n)
	}
	sort.Strings(names)
	vecs := make([]any, len(names))
	for i, n := range names {
		vecs[i] = r.vecs[n]
	}
	r.mu.Unlock()
	for _, v := range vecs {
		fn(v)
	}
}

// Counter sums a counter family by name — a flat counter contributes its
// single value, a labeled family the sum over its children; 0 if absent.
func (s MetricsSnapshot) Counter(name string) int64 {
	var sum int64
	for _, c := range s.Counters {
		if c.Name == name {
			sum += c.Value
		}
	}
	return sum
}

// Gauge returns a gauge's value by name; 0 if absent.
func (s MetricsSnapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram merges a histogram family by name: a flat histogram returns
// as-is, a labeled family returns the bucket-wise sum over its children
// (all children share the default bounds).
func (s MetricsSnapshot) Histogram(name string) (HistogramSnapshot, bool) {
	var merged HistogramSnapshot
	found := false
	for _, h := range s.Histograms {
		if h.Name != name {
			continue
		}
		if !found {
			merged = HistogramSnapshot{Name: name, Bounds: h.Bounds, Counts: append([]int64(nil), h.Counts...)}
			merged.Count, merged.Sum = h.Count, h.Sum
			found = true
			continue
		}
		merged.Count += h.Count
		merged.Sum += h.Sum
		for i := range h.Counts {
			merged.Counts[i] += h.Counts[i]
		}
	}
	return merged, found
}

// Format writes the snapshot as stable, diff-friendly text: one line per
// metric in name order, labels rendered Prometheus-style.
func (s MetricsSnapshot) Format(w io.Writer) {
	for _, c := range s.Counters {
		fmt.Fprintf(w, "counter %s%s %d\n", c.Name, FormatLabels(c.Labels), c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "gauge %s %d\n", g.Name, g.Value)
	}
	for _, f := range s.Floats {
		fmt.Fprintf(w, "floatgauge %s%s %.6f\n", f.Name, FormatLabels(f.Labels), f.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "histogram %s%s count=%d sum=%.6fs p50=%.6fs p99=%.6fs\n",
			h.Name, FormatLabels(h.Labels), h.Count, h.Sum, h.Quantile(0.50), h.Quantile(0.99))
	}
}
