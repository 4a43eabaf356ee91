package obs

import (
	"strconv"
	"testing"

	"kubeshare/internal/sim"
)

// TestTraceWriteAllocs: recording on a chain the tracer knows allocates
// nothing — Mark, Record, and Start with End, each with a four-fragment note
// and a key built inline, as the call sites build theirs. A new chain
// allocates once: the copy of its key.
func TestTraceWriteAllocs(t *testing.T) {
	tr := New(sim.NewEnv()).Tracer()
	tr.SetSpanCap(0)
	name, gpu, node := "train-3", "vgpu-0001", "node-1"
	tr.Mark("apiserver", "create", "SharePod/"+name)
	for op, write := range map[string]func(){
		"Mark": func() {
			tr.Mark("devmgr", "holder-ready", "SharePod/"+name, "gpuid=", gpu, " uuid=", node)
		},
		"Record": func() {
			tr.Record("kubeshare-sched", "schedule", "SharePod/"+name, 0, "gpuid=", gpu, " node=", node)
		},
		"Start+End": func() {
			tr.Start("devmgr", "bind", "SharePod/"+name).End("pod=", name, " uuid=", gpu)
		},
	} {
		if n := testing.AllocsPerRun(1000, write); n != 0 {
			t.Errorf("%s on a known chain: %v allocations, want 0", op, n)
		}
	}

	keys := make([]string, 1001) // AllocsPerRun calls once before it counts
	for i := range keys {
		keys[i] = "SharePod/job-" + strconv.Itoa(i)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tr.Mark("apiserver", "create", keys[i])
		i++
	}); n != 1 {
		t.Errorf("Mark on a new chain: %v allocations, want 1", n)
	}
	if tr.chains.n != 1+len(keys) {
		t.Fatalf("%d chains, want %d", tr.chains.n, 1+len(keys))
	}
}

// TestEventWriteAllocs: once its page exists, an event with a fragmented
// message allocates nothing.
func TestEventWriteAllocs(t *testing.T) {
	rt := New(sim.NewEnv())
	rec := rt.EventSource("devmgr")
	gpu, holder, uuid, node := "vgpu-0001", "vgpu-0001-holder", "GPU-1234", "node-1"
	write := func() {
		rec.Event("VGPU", gpu, EventNormal, "Created", "holder ", holder, " pinned ", uuid, " on ", node)
	}
	write()
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Errorf("Event: %v allocations, want 0", n)
	}
}

// TestNotesLongerThanAPage: a note longer than a page is kept whole, and the
// notes around it keep theirs.
func TestNotesLongerThanAPage(t *testing.T) {
	tr := New(sim.NewEnv()).Tracer()
	long := string(make([]byte, textPage+1))
	tr.Mark("a", "op", "K/1", "before")
	tr.Mark("a", "op", "K/1", long[:textPage/2], long[textPage/2:])
	tr.Mark("a", "op", "K/1", "after")
	spans := tr.Spans()
	if spans[0].Note != "before" || spans[1].Note != long || spans[2].Note != "after" {
		t.Fatalf("notes %q, %d bytes, %q", spans[0].Note, len(spans[1].Note), spans[2].Note)
	}
}
