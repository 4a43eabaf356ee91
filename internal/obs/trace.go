package obs

import (
	"fmt"
	"io"
	"time"

	"kubeshare/internal/sim"
)

// Span is one operation in the causal trace. Spans carry a chain key —
// "SharePod/train-3", "Pod/train-3-pod-1" — and every span's Parent is
// the span that last touched the same key, so a key's spans form a
// causal chain across layers: the apiserver's submit mark parents the
// scheduler's decision span, which parents DevMgr's bind, down to the
// device library's first token grant. IDs are sequential in recording
// order; since a sim env is single-threaded, the whole trace is
// deterministic for a given seed.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = chain root
	Key    string `json:"key"`
	// Component is the emitting layer: apiserver, kube-scheduler,
	// kubeshare-sched, kubelet, devmgr, devlib, gpusim, chaos.
	Component string        `json:"component"`
	Op        string        `json:"op"`
	Note      string        `json:"note,omitempty"`
	Start     time.Duration `json:"start_ns"`
	End       time.Duration `json:"end_ns"` // openEnd while the operation is in flight
}

// openEnd marks a span whose End() has not run (operation still in
// flight when the trace was read).
const openEnd = time.Duration(-1)

// Open reports whether the span was still in flight.
func (s Span) Open() bool { return s.End == openEnd }

// Duration returns End-Start, or 0 for open spans.
func (s Span) Duration() time.Duration {
	if s.Open() {
		return 0
	}
	return s.End - s.Start
}

// DefaultSpanCap bounds the retained span buffer. A 100k-sharePod fig16
// sweep records ~7 spans per chain, comfortably under the cap; the bound
// exists so a runaway or adversarial workload degrades to dropped spans
// (counted in kubeshare_obs_spans_dropped_total) instead of unbounded
// trace memory.
const DefaultSpanCap = 1 << 20

// spanPage is the span buffer's unit of growth: a full page is never
// copied again, so recording n spans allocates n spans' worth of pages, not
// the geometric series a single growing slice re-copies.
const (
	spanPageBits = 10
	spanPage     = 1 << spanPageBits
)

// Tracer records spans on the env's virtual clock. It is env-confined:
// all writes happen on the simulation goroutine, reads after the run.
type Tracer struct {
	env     *sim.Env
	pages   [][]Span         // span id is pages[(id-1)>>spanPageBits][(id-1)&(spanPage-1)]
	n       int              // spans recorded
	heads   map[string]int64 // key -> last span ID on that chain
	cap     int              // max retained spans; <= 0 means unbounded
	dropped int64
	onDrop  func() // bumps the drop counter; registered lazily by Runtime
}

func newTracer(env *sim.Env) *Tracer {
	return &Tracer{env: env, heads: map[string]int64{}, cap: DefaultSpanCap}
}

// SetSpanCap bounds the span buffer to n spans; once full, further spans
// are dropped (and counted) rather than recorded. n <= 0 removes the
// bound — the setting for golden runs, which must retain every span.
func (t *Tracer) SetSpanCap(n int) {
	if t != nil {
		t.cap = n
	}
}

// Dropped returns the number of spans discarded at the cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// push appends a span, linking it under the key's current head. At the
// cap it drops the span and returns 0 — the zero SpanRef/parent ID, so
// chains simply stop growing and End on a dropped span no-ops.
func (t *Tracer) push(component, op, key, note string, start, end time.Duration) int64 {
	if t.cap > 0 && t.n >= t.cap {
		t.dropped++
		if t.onDrop != nil {
			t.onDrop()
		}
		return 0
	}
	if t.n&(spanPage-1) == 0 {
		t.pages = append(t.pages, make([]Span, 0, spanPage))
	}
	t.n++
	id := int64(t.n)
	last := &t.pages[len(t.pages)-1]
	*last = append(*last, Span{
		ID: id, Parent: t.heads[key], Key: key,
		Component: component, Op: op, Note: note,
		Start: start, End: end,
	})
	t.heads[key] = id
	return id
}

// Start opens a span on key's chain and returns a handle to close it.
func (t *Tracer) Start(component, op, key string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	now := t.env.Now()
	return SpanRef{t: t, id: t.push(component, op, key, "", now, openEnd)}
}

// Mark records an instantaneous span (a milestone) on key's chain.
func (t *Tracer) Mark(component, op, key, note string) {
	if t == nil {
		return
	}
	now := t.env.Now()
	t.push(component, op, key, note, now, now)
}

// Record appends an already-finished span that started at start and
// ends now — for callers that only know the outcome after the fact
// (e.g. a scheduling cycle that spans many candidates). It returns the
// span's ID (0 if the span was dropped at the cap) so the caller can
// attach it to a histogram exemplar.
func (t *Tracer) Record(component, op, key, note string, start time.Duration) int64 {
	if t == nil {
		return 0
	}
	return t.push(component, op, key, note, start, t.env.Now())
}

// Spans returns a copy of every recorded span in ID order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, t.n)
	for _, page := range t.pages {
		out = append(out, page...)
	}
	return out
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// SpanRef is a handle to an open span. The zero value (from a nil
// tracer, or a span dropped at the buffer cap) no-ops.
type SpanRef struct {
	t  *Tracer
	id int64
}

// ID returns the referenced span's ID, or 0 for a no-op handle — the
// value exemplars carry to link a histogram bucket back to its span.
func (r SpanRef) ID() int64 { return r.id }

// End closes the span at the current virtual time.
func (r SpanRef) End() { r.EndNote("") }

// EndNote closes the span and attaches a note.
func (r SpanRef) EndNote(format string, args ...any) {
	if r.t == nil || r.id == 0 {
		return
	}
	sp := &r.t.pages[(r.id-1)>>spanPageBits][(r.id-1)&(spanPage-1)]
	sp.End = r.t.env.Now()
	if format != "" {
		sp.Note = fmt.Sprintf(format, args...)
	}
}

// Chain extracts key's causal chain: all spans recorded on that key, in
// order. Parent links within the result point at the previous element
// (or 0 for the root), which Sim.Trace consumers rely on to reconstruct
// a sharePod's life.
func Chain(spans []Span, key string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Key == key {
			out = append(out, s)
		}
	}
	return out
}

// FormatSpans writes spans as stable text, one line per span:
//
//	[   12.345s +0.100s] #7<-#5 devmgr/bind SharePod/train-3 pod=train-3-pod-1
func FormatSpans(w io.Writer, spans []Span) {
	for _, s := range spans {
		dur := "open"
		if !s.Open() {
			dur = fmt.Sprintf("+%.3fs", s.Duration().Seconds())
		}
		line := fmt.Sprintf("[%9.3fs %7s] #%d<-#%d %s/%s %s",
			s.Start.Seconds(), dur, s.ID, s.Parent, s.Component, s.Op, s.Key)
		if s.Note != "" {
			line += " " + s.Note
		}
		fmt.Fprintln(w, line)
	}
}
