package obs

import (
	"fmt"
	"io"
	"strings"
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

// spanRec is a span as the tracer stores it: fixed-size, its key a chain
// index and its note a substring of the tracer's note pages. Its ID is its
// position. IDs fit in 32 bits: 2^31 records would fill over 100 GB.
type spanRec struct {
	start, end    time.Duration
	parent, chain int32
	component, op string
	note          string
}

// chain is one causal chain: its key, copied once, and its last span.
type chain struct {
	key  string
	head int32
}

// Tracer records spans on the env's virtual clock. It is env-confined:
// all writes happen on the simulation goroutine, reads after the run.
//
// Recording a span on a known chain allocates nothing: neither the key nor
// the note fragments escape, the key is looked up in chainOf, and the
// fragments are copied into the note pages. Only a new chain's key is
// copied (one allocation), so a key the caller builds inline lives in the
// caller's frame when it is short.
type Tracer struct {
	env     *sim.Env
	spans   paged[spanRec]   // span id is spans' index + 1
	chainOf map[string]int32 // key -> index in chains
	chains  paged[chain]
	notes   texts
	cap     int // max retained spans; <= 0 means unbounded
	dropped int64
	onDrop  func() // bumps the drop counter; registered lazily by Runtime
}

func newTracer(env *sim.Env) *Tracer {
	return &Tracer{env: env, chainOf: map[string]int32{}, cap: DefaultSpanCap}
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

// push appends a span, linking it under the key's current head, with the
// concatenated note. At the cap it drops the span and returns 0 — the zero
// SpanRef/parent ID, so chains simply stop growing and End on a dropped
// span no-ops.
func (t *Tracer) push(component, op, key string, start, end time.Duration, note []string) int64 {
	if t.cap > 0 && t.spans.n >= t.cap {
		t.dropped++
		if t.onDrop != nil {
			t.onDrop()
		}
		return 0
	}
	c, ok := t.chainOf[key]
	if !ok {
		owned := strings.Clone(key)
		c = int32(t.chains.add(chain{key: owned}) - 1)
		t.chainOf[owned] = c
	}
	ch := t.chains.at(int(c))
	id := int32(t.spans.add(spanRec{
		start: start, end: end, parent: ch.head, chain: c,
		component: component, op: op, note: t.notes.join(note),
	}))
	ch.head = id
	return int64(id)
}

// Start opens a span on key's chain and returns a handle to close it.
func (t *Tracer) Start(component, op, key string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	now := t.env.Now()
	return SpanRef{t: t, id: t.push(component, op, key, now, openEnd, nil)}
}

// Mark records an instantaneous span (a milestone) on key's chain; its
// note is the concatenation of the fragments.
func (t *Tracer) Mark(component, op, key string, note ...string) {
	if t == nil {
		return
	}
	now := t.env.Now()
	t.push(component, op, key, now, now, note)
}

// Record appends an already-finished span that started at start and
// ends now — for callers that only know the outcome after the fact
// (e.g. a scheduling cycle that spans many candidates).
func (t *Tracer) Record(component, op, key string, start time.Duration, note ...string) {
	if t != nil {
		t.push(component, op, key, start, t.env.Now(), note)
	}
}

// Spans returns a copy of every recorded span in ID order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, t.spans.n)
	for _, page := range t.spans.pages {
		for i := range page {
			r := &page[i]
			out = append(out, Span{
				ID: int64(len(out) + 1), Parent: int64(r.parent), Key: t.chains.at(int(r.chain)).key,
				Component: r.component, Op: r.op, Note: r.note,
				Start: r.start, End: r.end,
			})
		}
	}
	return out
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.spans.n
}

// SpanRef is a handle to an open span. The zero value (from a nil
// tracer, or a span dropped at the buffer cap) no-ops.
type SpanRef struct {
	t  *Tracer
	id int64
}

// End closes the span at the current virtual time; its note, if any
// fragments are given, is their concatenation.
func (r SpanRef) End(note ...string) {
	if r.t == nil || r.id == 0 {
		return
	}
	sp := r.t.spans.at(int(r.id - 1))
	sp.end = r.t.env.Now()
	if len(note) > 0 {
		sp.note = r.t.notes.join(note)
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
