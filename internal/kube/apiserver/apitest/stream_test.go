package apitest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// recorder is a testing.TB that keeps the check's findings.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper()        {}
func (r *recorder) Cleanup(func()) {}
func (r *recorder) Error(a ...any) { r.errs = append(r.errs, fmt.Sprint(a...)) }
func (r *recorder) take() []string { errs := r.errs; r.errs = nil; return errs }

func mkPod(name string) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec:       api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
	}
}

// rig is a server with durability on, one informed Pod reflector and the
// check installed, after pods a and b were created and delivered.
func rig(t *testing.T) (*sim.Env, *apiserver.Server, *apiserver.Reflector, *StreamCheck, *recorder) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	srv.EnableDurability(apiserver.DurabilityConfig{CheckpointInterval: -1})
	rec := &recorder{TB: t}
	c := Install(rec, srv)
	r := srv.Inform("test", "consumer", "Pod", apiserver.WatchOptions{Replay: true}, func(*sim.Proc, store.Event) {})
	for _, name := range []string{"a", "b"} {
		if _, err := apiserver.Pods(srv).Create(mkPod(name)); err != nil {
			t.Fatal(err)
		}
	}
	env.RunUntil(time.Second)
	return env, srv, r, c, rec
}

// A revision that does not rise is flagged unless a restore since reverted
// the one delivered before it, or a relist in a later epoch re-sent the same
// write.
func TestStreamCheckFlagsFallingRevision(t *testing.T) {
	env, srv, r, c, rec := rig(t)
	a, _ := r.Cached("a")
	c.deliver(r, store.Event{Type: store.Modified, Object: a, Rev: 1})
	if errs := rec.take(); len(errs) != 1 || !strings.Contains(errs[0], "MODIFIED a at rev 1 after ADDED at rev 1") {
		t.Fatalf("a repeated revision: findings %q", errs)
	}

	// b's create (rev 2) is torn off the log: the relist after the restart
	// deletes b at the restored revision 1, below the 2 it was added at.
	_, logged, _ := srv.Store().DurableSizes()
	srv.TearWALTail(logged / 2)
	if st, err := srv.Restart(); err != nil || st.RestoredRev != 1 {
		t.Fatalf("restart: %v, %+v", err, st)
	}
	env.RunUntil(2 * time.Second)
	if last := c.streams[r]["b"].ev; last.Type != store.Deleted || last.Rev != 1 {
		t.Fatalf("b's last event %s at rev %d, want DELETED at rev 1", last.Type, last.Rev)
	}
	if errs := rec.take(); len(errs) != 0 {
		t.Fatalf("the relist after the torn tail: findings %q", errs)
	}

	// In the new epoch, a relist re-sending a's write unchanged is no
	// finding; the same revision again with other content is.
	c.deliver(r, store.Event{Type: store.Modified, Object: a, Rev: 1})
	if errs := rec.take(); len(errs) != 0 {
		t.Fatalf("a re-sent write: findings %q", errs)
	}
	other := mkPod("a")
	other.ResourceVersion = 1
	other.Status.Message = "other"
	c.deliver(r, store.Event{Type: store.Modified, Object: other, Rev: 1})
	if errs := rec.take(); len(errs) != 1 || !strings.Contains(errs[0], "MODIFIED a at rev 1 after MODIFIED at rev 1") {
		t.Fatalf("other content at a repeated revision: findings %q", errs)
	}
}

// At quiescence a view that missed a write, or still holds a deleted object,
// is flagged; the cluster's own view passes.
func TestStreamCheckFlagsStaleView(t *testing.T) {
	_, _, r, c, rec := rig(t)
	c.Check()
	if errs := rec.take(); len(errs) != 0 {
		t.Fatalf("a quiescent view: findings %q", errs)
	}

	stale := mkPod("a")
	stale.ResourceVersion = 1
	stale.Status.Message = "missed"
	c.streams[r]["a"] = delivered{ev: store.Event{Type: store.Added, Object: stale, Rev: 1}}
	c.streams[r]["gone"] = delivered{ev: store.Event{Type: store.Added, Object: mkPod("gone"), Rev: 1}}
	delete(c.streams[r], "b")
	c.Check()
	want := []string{
		"apitest: test/Pod last delivered a at rev 1, the store holds other content at rev 1",
		"apitest: test/Pod never delivered b rev 2",
		"apitest: test/Pod still holds gone rev 1, which the store no longer lists",
	}
	if errs := rec.take(); strings.Join(errs, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(errs, "\n"), strings.Join(want, "\n"))
	}
}
