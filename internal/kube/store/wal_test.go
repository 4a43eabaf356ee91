package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
)

// testKinds are the registered kinds the durability tests churn over: two
// with a status subresource and one without. SharePodSet is core's, which
// this package's external tests link in.
var testKinds = []string{"Pod", "Node", "SharePodSet"}

func newTestObj(kind, name string, labels map[string]string) api.Object {
	obj, err := api.NewObject(kind)
	if err != nil {
		panic(err)
	}
	meta := obj.GetMeta()
	meta.Name = name
	meta.Labels = labels
	return obj
}

// churn applies n seeded random mutations to the store and returns how many
// were applied (conflicting ops — create-exists, delete-missing — count as
// applied no-ops so two stores fed the same stream stay in lockstep).
func churn(t *testing.T, s *Store, rng *simrand.Source, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		kind := testKinds[rng.Intn(len(testKinds))]
		name := fmt.Sprintf("obj-%d", rng.Intn(12))
		switch rng.Intn(3) {
		case 0:
			lbl := map[string]string{"tier": fmt.Sprintf("t%d", rng.Intn(3))}
			if _, err := s.Create(newTestObj(kind, name, lbl)); err != nil && !errors.Is(err, ErrExists) {
				t.Fatalf("create %s/%s: %v", kind, name, err)
			}
		case 1:
			cur, err := edit(s, kind, name)
			if err != nil {
				continue
			}
			cur.GetMeta().Labels = map[string]string{"tier": fmt.Sprintf("t%d", rng.Intn(3))}
			if _, err := s.Update(cur); err != nil && !errors.Is(err, ErrConflict) {
				t.Fatalf("update %s/%s: %v", kind, name, err)
			}
		case 2:
			if err := s.Delete(kind, name); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete %s/%s: %v", kind, name, err)
			}
		}
	}
}

// stored counts the objects of every kind.
func stored(s *Store) int {
	n := 0
	for kind := range s.kinds {
		n += s.Count(kind)
	}
	return n
}

// fingerprint captures everything the monotonicity property compares: the
// revision and every object's key, UID, version and labels.
func fingerprint(s *Store) string {
	out := fmt.Sprintf("rev=%d", s.Revision())
	for _, kind := range testKinds {
		for _, obj := range s.List(kind) {
			m := obj.GetMeta()
			out += fmt.Sprintf("\n%s/%s uid=%s rv=%d tier=%s", kind, m.Name, m.UID, m.ResourceVersion, m.Labels["tier"])
		}
	}
	return out
}

// TestRestoreComposesWithChurn is the revision-monotonicity property test:
// (churn → checkpoint/crash/restore interleaved) must be indistinguishable
// from uninterrupted live churn — same objects, same UIDs, same
// ResourceVersions, same revision — and the first mutation after each
// restore must commit above every restored object's ResourceVersion, so
// post-restore mutations never reuse a revision.
func TestRestoreComposesWithChurn(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		env := sim.NewEnv()
		live := New(env)
		durable := New(env)
		durable.EnableDurability(nil, nil)

		liveRng := simrand.New(seed).Fork("ops")
		durRng := simrand.New(seed).Fork("ops")
		ctlRng := simrand.New(seed).Fork("control")
		for round := 0; round < 6; round++ {
			n := 20 + ctlRng.Intn(30)
			churn(t, live, liveRng, n)
			churn(t, durable, durRng, n)
			if ctlRng.Intn(2) == 0 {
				durable.Checkpoint()
			}
			before := durable.Revision()
			st, err := durable.Crash()
			if err != nil {
				t.Fatalf("seed %d round %d: crash: %v", seed, round, err)
			}
			if st.RestoredRev != before {
				t.Fatalf("seed %d round %d: restored rev %d != pre-crash rev %d (clean log must lose nothing)",
					seed, round, st.RestoredRev, before)
			}
			var maxRV int64
			for _, kind := range testKinds {
				durable.Scan(kind, func(o api.Object) bool {
					maxRV = max(maxRV, o.GetMeta().ResourceVersion)
					return true
				})
			}
			// The probe goes to both stores so they stay in lockstep.
			probe := newTestObj("Pod", fmt.Sprintf("probe-%d", round), nil)
			if _, err := live.Create(probe); err != nil {
				t.Fatalf("seed %d round %d: live probe: %v", seed, round, err)
			}
			got, err := durable.Create(probe)
			if err != nil {
				t.Fatalf("seed %d round %d: probe: %v", seed, round, err)
			}
			if rv := got.GetMeta().ResourceVersion; rv <= maxRV {
				t.Fatalf("seed %d round %d: first post-restore mutation at rev %d, restored objects reach %d",
					seed, round, rv, maxRV)
			}
		}
		if got, want := fingerprint(durable), fingerprint(live); got != want {
			t.Fatalf("seed %d: durable store diverged from live churn\n--- durable\n%s\n--- live\n%s", seed, got, want)
		}
	}
}

// TestCheckpointRestoreRoundTrip checks the plain path: state checkpointed,
// more state logged, crash, everything back.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.EnableDurability(nil, nil)
	if _, err := s.Create(newTestObj("Pod", "a", map[string]string{"app": "x"})); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	if _, err := s.Create(newTestObj("Node", "n1", nil)); err != nil {
		t.Fatal(err)
	}
	cur, _ := edit(s, "Pod", "a")
	cur.GetMeta().Labels = map[string]string{"app": "y"}
	if _, err := s.Update(cur); err != nil {
		t.Fatal(err)
	}
	preRev := s.Revision()

	st, err := s.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTail {
		t.Fatal("clean log reported torn tail")
	}
	if st.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2", st.Replayed)
	}
	if s.Revision() != preRev {
		t.Fatalf("revision %d after restore, want %d", s.Revision(), preRev)
	}
	pod, err := s.Get("Pod", "a")
	if err != nil {
		t.Fatalf("pod lost: %v", err)
	}
	if pod.GetMeta().Labels["app"] != "y" {
		t.Fatalf("pod label %q, want post-checkpoint update %q", pod.GetMeta().Labels["app"], "y")
	}
	if _, err := s.Get("Node", "n1"); err != nil {
		t.Fatalf("wal-only node lost: %v", err)
	}
	// The label index must be restored too, not just the objects.
	sel := labels.SelectorFromMap(map[string]string{"app": "y"})
	if got := len(s.ListSelector("Pod", sel)); got != 1 {
		t.Fatalf("label index returned %d pods for app=y, want 1", got)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", s.Epoch())
	}
}

// TestRestoredObjectsShareNoBytesWithMedium: restored objects are decoded
// from copies, never from the durable medium, whose buffers the store goes on
// rewriting in place — Checkpoint rebuilds the image over the old one, writes
// after it refill the log from its start, TearWALTail flips a byte. Every
// object restored from the checkpoint and from the log must still encode to
// the bytes it had right after the restore.
func TestRestoredObjectsShareNoBytesWithMedium(t *testing.T) {
	s := New(sim.NewEnv())
	s.EnableDurability(nil, nil)
	// Equal-length names keep every image the same size or smaller than the
	// one restored from, so each Checkpoint reuses its buffer.
	shaped := func(name string) api.Object {
		obj := newTestObj("Pod", name, map[string]string{"app": "x-" + name, "tier": "t1"})
		obj.GetMeta().Annotations = map[string]string{"note": "annotation of " + name}
		obj.GetMeta().OwnerName = "SharePod/" + name
		return obj
	}
	mustCreate := func(name string) {
		if _, err := s.Create(shaped(name)); err != nil {
			t.Fatal(err)
		}
	}
	mustDelete := func(name string) {
		if err := s.Delete("Pod", name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		mustCreate(fmt.Sprintf("ck-%d", i))
	}
	s.Checkpoint()
	for i := 0; i < 3; i++ {
		mustCreate(fmt.Sprintf("lg-%d", i))
		mustDelete(fmt.Sprintf("ck-%d", 5-i))
	}
	if st, err := s.Crash(); err != nil || st.Replayed != 6 {
		t.Fatalf("restore: %v, %+v", err, st)
	}
	restored := s.List("Pod")
	encoded := make([][]byte, len(restored))
	for i, obj := range restored {
		encoded[i] = obj.AppendBinary(nil)
	}
	image, log := &s.dur.checkpoint[0], &s.dur.wal[0]

	s.Checkpoint()
	mustDelete("ck-0") // every later object moves in the next image
	if !s.TearWALTail(0) {
		t.Fatal("nothing to tear")
	}
	s.Checkpoint()
	for i := 0; i < 3; i++ {
		mustCreate(fmt.Sprintf("af-%d", i))
	}
	if &s.dur.checkpoint[0] != image || &s.dur.wal[0] != log {
		t.Fatal("a medium buffer was reallocated, not rewritten in place: the test proves nothing")
	}
	for i, obj := range restored {
		if got := obj.AppendBinary(nil); !bytes.Equal(got, encoded[i]) {
			t.Errorf("a restored object changed when the medium was rewritten:\nwas %q\nnow %q", encoded[i], got)
		}
	}
}

// TestTornTailTruncateAndRecover damages the log tail both ways — truncated
// mid-frame and CRC-corrupted — and requires restore to cut the damage and
// recover the longest valid prefix without wedging.
func TestTornTailTruncateAndRecover(t *testing.T) {
	for _, tearBytes := range []int{0, 3} { // 0 = flip last byte, 3 = truncate mid-frame
		env := sim.NewEnv()
		s := New(env)
		s.EnableDurability(nil, nil)
		for i := 0; i < 5; i++ {
			if _, err := s.Create(newTestObj("Pod", fmt.Sprintf("p%d", i), nil)); err != nil {
				t.Fatal(err)
			}
		}
		if !s.TearWALTail(tearBytes) {
			t.Fatal("nothing to tear")
		}
		st, err := s.Crash()
		if err != nil {
			t.Fatal(err)
		}
		if !st.TornTail {
			t.Fatalf("tear=%d: restore did not report a torn tail", tearBytes)
		}
		if st.Replayed != 4 {
			t.Fatalf("tear=%d: replayed %d records, want the 4-record valid prefix", tearBytes, st.Replayed)
		}
		if _, err := s.Get("Pod", "p4"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("tear=%d: torn record's object survived: %v", tearBytes, err)
		}
		if _, err := s.Get("Pod", "p3"); err != nil {
			t.Fatalf("tear=%d: valid prefix lost: %v", tearBytes, err)
		}
		// The store must stay fully usable: a re-create of the reverted
		// object gets a fresh revision strictly above the restored one.
		obj, err := s.Create(newTestObj("Pod", "p4", nil))
		if err != nil {
			t.Fatalf("tear=%d: create after torn-tail restore: %v", tearBytes, err)
		}
		if obj.GetMeta().ResourceVersion <= st.RestoredRev {
			t.Fatalf("tear=%d: post-restore rev %d not above restored %d",
				tearBytes, obj.GetMeta().ResourceVersion, st.RestoredRev)
		}
		// A second crash replays the already-truncated log cleanly.
		st2, err := s.Crash()
		if err != nil {
			t.Fatalf("tear=%d: second crash: %v", tearBytes, err)
		}
		if st2.TornTail {
			t.Fatalf("tear=%d: second restore reports torn tail again", tearBytes)
		}
	}
}

// TestWatchFencingAcrossRestore checks both revision fences: a resume from
// before the restore point is Gone (history died with the process), and a
// resume from a revision above the restored one — a consumer that observed
// a torn-tail-reverted mutation — is Gone too.
func TestWatchFencingAcrossRestore(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.EnableDurability(nil, nil)
	for i := 0; i < 4; i++ {
		if _, err := s.Create(newTestObj("Pod", fmt.Sprintf("p%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	midRev := s.Revision() - 2
	s.TearWALTail(1)
	st, err := s.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WatchFilteredFrom("Pod", WatchOptions{}, midRev); !errors.Is(err, ErrGone) {
		t.Fatalf("resume from pre-restart rev %d: got %v, want ErrGone", midRev, err)
	}
	if _, err := s.WatchFilteredFrom("Pod", WatchOptions{}, st.RestoredRev+1); !errors.Is(err, ErrGone) {
		t.Fatalf("resume from reverted rev %d: got %v, want ErrGone", st.RestoredRev+1, err)
	}
	if _, err := s.WatchFilteredFrom("Pod", WatchOptions{}, st.RestoredRev); err != nil {
		t.Fatalf("resume from restored rev: %v", err)
	}
}

// TestCrashClosesWatchQueues: kind-wide and filtered watchers alike see their
// queues close at the crash instant.
func TestCrashClosesWatchQueues(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.EnableDurability(nil, nil)
	kindQ := s.Watch("Pod", false)
	var namedQ *sim.Queue[Event]
	env.Go("setup", func(p *sim.Proc) {
		namedQ = s.WatchFiltered("Node", WatchOptions{Name: "n1"})
	})
	env.Run()
	if _, err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if !kindQ.Closed() {
		t.Fatal("kind-wide watch queue survived the crash")
	}
	if !namedQ.Closed() {
		t.Fatal("name-filtered watch queue survived the crash")
	}
}

// TestCrashWakeOrderDeterministic: the order Crash closes watch queues is the
// order parked reflectors wake and reconnect after an apiserver restart, so
// it must be the same on every run — kind-name order, whatever order the
// watches were registered in.
func TestCrashWakeOrderDeterministic(t *testing.T) {
	kinds := []string{"VGPU", "Node", "SharePodSet", "SharePod"}
	const want = "Node,SharePod,SharePodSet,VGPU"
	for run := 0; run < 64; run++ {
		env := sim.NewEnv()
		s := New(env)
		var woke []string
		for _, kind := range kinds {
			q := s.Watch(kind, false)
			env.Go(kind, func(p *sim.Proc) {
				if _, ok := q.Get(p); !ok {
					woke = append(woke, kind)
				}
			})
		}
		env.Run() // park all four
		s.EnableDurability(nil, nil)
		if _, err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		env.Run()
		if got := strings.Join(woke, ","); got != want {
			t.Fatalf("run %d: watchers woke in order %s, want %s", run, got, want)
		}
	}
}

// TestCrashReportsUnreadableMedium: a checkpoint image is written whole, so
// damage to it is no crash artifact to cut around — Crash returns it, with
// the store left empty, its watchers closed and the epoch advanced. So is a
// log record of a kind nobody registered: truncating there would throw away
// data a correctly linked binary could read.
func TestCrashReportsUnreadableMedium(t *testing.T) {
	checkpoint, wal := fixtureMedium(t)
	edit := func(b []byte, f func(b []byte) []byte) []byte { return f(bytes.Clone(b)) }
	renamePod := func(b []byte) []byte { return bytes.Replace(b, []byte("\x03Pod"), []byte("\x03Pox"), 1) }
	cases := []struct {
		name            string
		checkpoint, wal []byte
		want            string
	}{
		{"bad magic", edit(checkpoint, func(b []byte) []byte { b[0] = 'X'; return b }), nil, "bad magic or version"},
		{"other version", edit(checkpoint, func(b []byte) []byte { b[4] = 1; return b }), nil, "bad magic or version"},
		{"shorter than a header", checkpoint[:6], nil, "bad magic or version"},
		{"flipped byte", edit(checkpoint, func(b []byte) []byte { b[40] ^= 1; return b }), nil, "CRC mismatch"},
		{"cut short", checkpoint[:len(checkpoint)-9], nil, "CRC mismatch"},
		{"trailing byte", edit(checkpoint, func(b []byte) []byte { return reseal(append(b, 0)) }), nil, "trailing bytes"},
		{"last object cut short", edit(checkpoint, func(b []byte) []byte { return reseal(b[:len(b)-8]) }), nil, "checkpoint corrupt"},
		{"unregistered kind in the image", reseal(renamePod(checkpoint)), nil, "kind not registered"},
		{"unregistered kind in the log", checkpoint, resealWAL(renamePod(wal)), "kind not registered"},
	}
	for _, tc := range cases {
		s := New(sim.NewEnv())
		s.EnableDurability(nil, nil)
		q := s.Watch("Pod", false)
		s.dur.checkpoint, s.dur.wal = tc.checkpoint, tc.wal
		_, err := s.Crash()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Crash returned %v, want an error mentioning %q", tc.name, err, tc.want)
			continue
		}
		if strings.Contains(tc.want, "not registered") != errors.Is(err, api.ErrUnregisteredKind) {
			t.Errorf("%s: errors.Is(err, ErrUnregisteredKind) is wrong for %v", tc.name, err)
		}
		if n := stored(s); n != 0 || !q.Closed() || s.Epoch() != 1 {
			t.Errorf("%s: after the failed restore: %d objects, watch closed %v, epoch %d", tc.name, n, q.Closed(), s.Epoch())
		}
	}
	// Control: the untampered medium restores.
	if _, st, err := restoreFrom(checkpoint, wal); err != nil || st.Replayed != 3 || st.TornTail {
		t.Fatalf("the fixture itself: %v, %+v", err, st)
	}
}
