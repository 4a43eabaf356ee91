package obs

import (
	"fmt"
	"testing"

	"kubeshare/internal/sim"
)

// TestSpanCap: once the buffer reaches the cap, further spans are
// dropped and counted — in the tracer and, lazily, in the
// kubeshare_obs_spans_dropped_total counter — and handles to dropped
// spans no-op instead of corrupting the buffer.
func TestSpanCap(t *testing.T) {
	env := sim.NewEnv()
	rt := New(env)
	tr := rt.Tracer()
	tr.SetSpanCap(3)

	tr.Mark("a", "op", "K/1", "")
	tr.Record("a", "op", "K/2", "", 0)
	kept := tr.Start("a", "op", "K/3")
	dropped := tr.Start("a", "op", "K/4")
	tr.Mark("a", "op", "K/5", "")

	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (cap)", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	if dropped.id != 0 {
		t.Fatalf("dropped span ref has ID %d, want 0", dropped.id)
	}
	dropped.End() // must not panic or touch the buffer
	kept.End()
	if got := tr.Spans()[2]; got.Open() {
		t.Fatalf("kept span should have closed: %+v", got)
	}
	if v := rt.Snapshot().Counter("kubeshare_obs_spans_dropped_total"); v != 2 {
		t.Fatalf("kubeshare_obs_spans_dropped_total = %d, want 2", v)
	}
}

// TestSpanCapLazyCounter: a run that never drops must not register the
// drop counter — the metric namespace (and so every telemetry golden)
// is unchanged unless drops actually happen.
func TestSpanCapLazyCounter(t *testing.T) {
	env := sim.NewEnv()
	rt := New(env)
	rt.Tracer().Mark("a", "op", "K/1", "")
	for _, c := range rt.Snapshot().Counters {
		if c.Name == "kubeshare_obs_spans_dropped_total" {
			t.Fatal("drop counter registered without any drop")
		}
	}
}

// TestSpanCapOff: SetSpanCap(0) removes the bound.
func TestSpanCapOff(t *testing.T) {
	env := sim.NewEnv()
	rt := New(env)
	tr := rt.Tracer()
	tr.SetSpanCap(2)
	tr.Mark("a", "op", "K/1", "")
	tr.Mark("a", "op", "K/2", "")
	tr.SetSpanCap(0)
	tr.Mark("a", "op", "K/3", "")
	if tr.Len() != 3 || tr.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 3/0 with the cap off", tr.Len(), tr.Dropped())
	}
}

// TestSpanPages: the buffer grows by fixed pages, which nothing outside the
// tracer can tell — a handle closes its own span on either side of a page
// boundary, Spans() is ID order across pages (the last one partial), and a
// cap that lands exactly on a boundary drops the next span without opening a
// page for it.
func TestSpanPages(t *testing.T) {
	env := sim.NewEnv()
	tr := New(env).Tracer()
	tr.SetSpanCap(3 * spanPage)
	var refs []SpanRef
	for i := 0; i < 2*spanPage+7; i++ {
		refs = append(refs, tr.Start("a", "op", "K/1"))
	}
	for _, i := range []int{0, spanPage - 1, spanPage, 2*spanPage - 1, 2 * spanPage, 2*spanPage + 6} {
		refs[i].EndNote("closed %d", i)
	}
	spans := tr.Spans()
	if len(spans) != 2*spanPage+7 || tr.Len() != len(spans) {
		t.Fatalf("Spans() holds %d, Len() %d, want %d", len(spans), tr.Len(), 2*spanPage+7)
	}
	closed := 0
	for i, s := range spans {
		if s.ID != int64(i+1) || s.Parent != int64(i) {
			t.Fatalf("span %d has ID %d parent %d", i, s.ID, s.Parent)
		}
		if !s.Open() {
			closed++
			if s.Note != fmt.Sprintf("closed %d", i) {
				t.Fatalf("span %d closed with note %q: a handle closed another page's span", i, s.Note)
			}
		}
	}
	if closed != 6 {
		t.Fatalf("%d spans closed, want 6", closed)
	}

	for i := tr.Len(); i < 3*spanPage; i++ {
		tr.Mark("a", "op", "K/2", "")
	}
	over := tr.Start("a", "op", "K/3")
	over.End()
	if tr.Len() != 3*spanPage || tr.Dropped() != 1 || over.id != 0 || len(tr.pages) != 3 {
		t.Fatalf("at a cap of three pages: Len=%d Dropped=%d ref=%d pages=%d, want %d/1/0/3",
			tr.Len(), tr.Dropped(), over.id, len(tr.pages), 3*spanPage)
	}
	if last := tr.Spans()[3*spanPage-1]; last.ID != 3*spanPage || last.Key != "K/2" {
		t.Fatalf("last span %+v", last)
	}
}
