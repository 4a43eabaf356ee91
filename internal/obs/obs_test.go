package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/sim"
)

func TestNilRuntimeNoOps(t *testing.T) {
	var rt *Runtime
	// Every path must be callable on a nil runtime / nil handles.
	rt.Counter("c").Inc()
	rt.Counter("c").Add(3)
	rt.Gauge("g").Set(7)
	rt.Histogram("h").Observe(0.5)
	rt.Tracer().Mark("x", "y", "k", "note")
	rt.Tracer().Record("x", "y", "k", 0, "note")
	ref := rt.Tracer().Start("x", "y", "k")
	ref.End()
	ref.End("note ", "1")
	rt.EventSource("src").Event("Kind", "name", EventNormal, "Reason", "msg")
	if rt.Counter("c").Value() != 0 || rt.Gauge("g").Value() != 0 {
		t.Fatal("nil handles returned nonzero values")
	}
	if rt.Tracer().Len() != 0 || len(rt.Tracer().Spans()) != 0 || len(rt.Events()) != 0 {
		t.Fatal("nil runtime recorded telemetry")
	}
	s := rt.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil runtime produced a non-empty snapshot")
	}
}

func TestRegistryHandlesAndSnapshot(t *testing.T) {
	env := sim.NewEnv()
	rt := New(env)
	c := rt.Counter("b_total")
	if c2 := rt.Counter("b_total"); c2 != c {
		t.Fatal("same name returned a different counter")
	}
	c.Inc()
	c.Add(2)
	rt.Counter("a_total").Inc()
	rt.Gauge("depth").Set(5)
	rt.Histogram("lat_seconds").Observe(0.0015)

	s := rt.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_total" || s.Counters[1].Name != "b_total" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Counter("b_total") != 3 || s.Counter("missing") != 0 {
		t.Fatalf("counter lookup: %+v", s.Counters)
	}
	if s.Gauge("depth") != 5 {
		t.Fatalf("gauge lookup: %+v", s.Gauges)
	}
	h, ok := s.Histogram("lat_seconds")
	if !ok || h.Count != 1 {
		t.Fatalf("histogram lookup: %+v", s.Histograms)
	}
	var buf bytes.Buffer
	s.Format(&buf)
	out := buf.String()
	for _, want := range []string{"counter a_total 1", "counter b_total 3", "gauge depth 5", "histogram lat_seconds count=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	env := sim.NewEnv()
	h := New(env).Histogram("h")
	// 100 observations spread evenly over 0..1s.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) / 100)
	}
	s := h.snapshot("h")
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if m := s.Mean(); math.Abs(m-0.495) > 0.001 {
		t.Fatalf("mean = %v", m)
	}
	p50 := s.Quantile(0.5)
	if p50 < 0.25 || p50 > 0.75 {
		t.Fatalf("p50 = %v, want ≈0.5", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < p50 || p99 > 1.1 {
		t.Fatalf("p99 = %v", p99)
	}
	// Overflow: beyond the largest bound reports the largest bound.
	h2 := New(env).Histogram("h2")
	h2.Observe(1e9)
	s2 := h2.snapshot("h2")
	if got := s2.Quantile(0.5); got != s2.Bounds[len(s2.Bounds)-1] {
		t.Fatalf("overflow quantile = %v", got)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile nonzero")
	}
}

func TestTracerCausalChains(t *testing.T) {
	env := sim.NewEnv()
	rt := New(env)
	tr := rt.Tracer()

	tr.Mark("apiserver", "create", "SharePod/x")
	var ref SpanRef
	env.Go("worker", func(p *sim.Proc) {
		ref = tr.Start("devmgr", "bind", "SharePod/x")
		tr.Mark("apiserver", "create", "Pod/other") // unrelated chain
		p.Sleep(100 * time.Millisecond)
		ref.End("pod=", "x-pod-0")
		tr.Mark("kubelet", "pod-sync", "SharePod/x")
	})
	env.Run()

	all := tr.Spans()
	if len(all) != 4 {
		t.Fatalf("spans = %d", len(all))
	}
	chain := Chain(all, "SharePod/x")
	if len(chain) != 3 {
		t.Fatalf("chain = %+v", chain)
	}
	if chain[0].Parent != 0 || chain[1].Parent != chain[0].ID || chain[2].Parent != chain[1].ID {
		t.Fatalf("parent links broken: %+v", chain)
	}
	bind := chain[1]
	if bind.Open() || bind.Duration() != 100*time.Millisecond || bind.Note != "pod=x-pod-0" {
		t.Fatalf("bind span = %+v", bind)
	}
	// The unrelated chain roots independently.
	if other := Chain(all, "Pod/other"); len(other) != 1 || other[0].Parent != 0 {
		t.Fatalf("other chain = %+v", other)
	}

	var buf bytes.Buffer
	FormatSpans(&buf, chain)
	if !strings.Contains(buf.String(), "devmgr/bind SharePod/x pod=x-pod-0") {
		t.Fatalf("FormatSpans output:\n%s", buf.String())
	}
}

func TestTracerOpenSpan(t *testing.T) {
	env := sim.NewEnv()
	tr := New(env).Tracer()
	tr.Start("kubelet", "pod-sync", "Pod/p") // never ended
	sp := tr.Spans()[0]
	if !sp.Open() || sp.Duration() != 0 {
		t.Fatalf("span = %+v", sp)
	}
	var buf bytes.Buffer
	FormatSpans(&buf, tr.Spans())
	if !strings.Contains(buf.String(), "open") {
		t.Fatalf("open span not rendered: %s", buf.String())
	}
}

// TestEventsLogAndSink: the runtime's ordered log is the one sink every
// event lands in, stamped with its virtual time and source, and
// FormatEvents renders it.
func TestEventsLogAndSink(t *testing.T) {
	env := sim.NewEnv()
	rt := New(env)
	env.Go("emitter", func(p *sim.Proc) {
		p.Sleep(time.Second)
		rt.EventSource("kubelet/node-0").Event("Pod", "p1", EventWarning, "FailedStart", "exit ", "3")
	})
	env.Run()
	evs := rt.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.Time != time.Second || e.Kind != "Pod" || e.Name != "p1" ||
		e.Type != EventWarning || e.Reason != "FailedStart" ||
		e.Source != "kubelet/node-0" || e.Message != "exit 3" {
		t.Fatalf("event = %+v", e)
	}
	var buf bytes.Buffer
	FormatEvents(&buf, evs)
	if !strings.Contains(buf.String(), "FailedStart") || !strings.Contains(buf.String(), "Pod/p1") {
		t.Fatalf("FormatEvents output: %s", buf.String())
	}
}
