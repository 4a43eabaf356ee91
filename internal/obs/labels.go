package obs

import (
	"sort"
	"strings"
	"sync"
)

// Label is one metric dimension: a key (fixed per family: gpu_uuid, tenant,
// node, pool) and a value drawn from object names or device UUIDs — never
// free-form strings, so family cardinality stays bounded by cluster size.
type Label struct {
	Key   string
	Value string
}

// FormatLabels renders labels Prometheus-style: {k1="v1",k2="v2"}. Empty
// label sets render as "".
func FormatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// family is the shared child-interning machinery behind every *Vec type:
// one metric name, a fixed key schema, and a map from interned label-value
// tuples to child handles. Lookup builds the composite key into a scratch
// buffer under the lock, so a hit (the steady state — call sites cache
// their children, and even uncached lookups repeat the same tuples)
// allocates nothing.
type family struct {
	name string
	keys []string

	mu       sync.Mutex
	children map[string]any
	scratch  []byte
}

func newFamily(name string, keys []string) *family {
	return &family{name: name, keys: keys, children: map[string]any{}}
}

// child interns the label values and returns the cached child, or nil when
// make must be called by the caller to create one. The caller runs under
// f.mu via lookup.
func (f *family) lookup(values []string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Composite key: values joined by 0xff (cannot appear in object names
	// or UUIDs). Built into the reusable scratch buffer; map lookup by
	// string(bytes) does not allocate on hit (compiler optimization).
	f.scratch = f.scratch[:0]
	for i, v := range values {
		if i > 0 {
			f.scratch = append(f.scratch, 0xff)
		}
		f.scratch = append(f.scratch, v...)
	}
	if c, ok := f.children[string(f.scratch)]; ok {
		return c
	}
	c := make()
	f.children[string(f.scratch)] = c
	return c
}

// labelsFor reconstructs the Label slice of one interned child key.
func (f *family) labelsFor(key string) []Label {
	values := strings.Split(key, "\xff")
	out := make([]Label, len(f.keys))
	for i, k := range f.keys {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		out[i] = Label{Key: k, Value: v}
	}
	return out
}

// sortedKeys returns the interned child keys in deterministic order, for
// snapshots.
func (f *family) sortedKeys() []string {
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterVec is a family of counters sharing one name, partitioned by a
// fixed label-key schema.
type CounterVec struct{ f *family }

// With fetches or creates the child counter for the label values, given in
// schema order. Call sites on hot paths cache the returned handle.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.lookup(values, func() any { return &Counter{} }).(*Counter)
}

// Each visits every child with its labels, in deterministic (sorted label)
// order — the read side for consumers that aggregate across a family, like
// the fairness auditor differencing per-tenant hold counters.
func (v *CounterVec) Each(fn func(labels []Label, value int64)) {
	if v == nil {
		return
	}
	v.f.mu.Lock()
	keys := v.f.sortedKeys()
	children := make([]*Counter, len(keys))
	for i, k := range keys {
		children[i] = v.f.children[k].(*Counter)
	}
	v.f.mu.Unlock()
	for i, k := range keys {
		fn(v.f.labelsFor(k), children[i].Value())
	}
}

// FloatGaugeVec is a family of float gauges (ratios: utilization, shares,
// fairness indices).
type FloatGaugeVec struct{ f *family }

// With fetches or creates the child gauge for the label values.
func (v *FloatGaugeVec) With(values ...string) *FloatGauge {
	if v == nil {
		return nil
	}
	return v.f.lookup(values, func() any { return &FloatGauge{} }).(*FloatGauge)
}

// HistogramVec is a family of duration histograms.
type HistogramVec struct{ f *family }

// With fetches or creates the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.lookup(values, func() any { return newHistogram(defaultBounds()) }).(*Histogram)
}

// vecRegistry interns the *Vec families themselves, one per metric name.
type vecRegistry struct {
	mu   sync.Mutex
	vecs map[string]any
}

func (r *vecRegistry) get(name string, keys []string, make func(*family) any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.vecs == nil {
		r.vecs = map[string]any{}
	}
	if v, ok := r.vecs[name]; ok {
		return v
	}
	v := make(newFamily(name, keys))
	r.vecs[name] = v
	return v
}

// CounterVec fetches or registers a labeled counter family. The label keys
// are fixed at first registration; later fetches pass the same schema.
func (g *Registry) CounterVec(name string, labelKeys ...string) *CounterVec {
	if g == nil {
		return nil
	}
	return g.ctrVecs.get(name, labelKeys, func(f *family) any { return &CounterVec{f: f} }).(*CounterVec)
}

// FloatGaugeVec fetches or registers a labeled float-gauge family.
func (g *Registry) FloatGaugeVec(name string, labelKeys ...string) *FloatGaugeVec {
	if g == nil {
		return nil
	}
	return g.floatVecs.get(name, labelKeys, func(f *family) any { return &FloatGaugeVec{f: f} }).(*FloatGaugeVec)
}

// HistogramVec fetches or registers a labeled histogram family.
func (g *Registry) HistogramVec(name string, labelKeys ...string) *HistogramVec {
	if g == nil {
		return nil
	}
	return g.histVecs.get(name, labelKeys, func(f *family) any { return &HistogramVec{f: f} }).(*HistogramVec)
}

// CounterVec fetches or registers a labeled counter family on the runtime.
func (r *Runtime) CounterVec(name string, labelKeys ...string) *CounterVec {
	return r.Registry().CounterVec(name, labelKeys...)
}

// FloatGaugeVec fetches or registers a labeled float-gauge family on the
// runtime.
func (r *Runtime) FloatGaugeVec(name string, labelKeys ...string) *FloatGaugeVec {
	return r.Registry().FloatGaugeVec(name, labelKeys...)
}

// HistogramVec fetches or registers a labeled histogram family on the
// runtime.
func (r *Runtime) HistogramVec(name string, labelKeys ...string) *HistogramVec {
	return r.Registry().HistogramVec(name, labelKeys...)
}
