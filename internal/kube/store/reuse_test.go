package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
)

// counters are the store's revision, UID counter and compaction floor.
func counters(s *Store) string {
	return fmt.Sprintf("rev=%d uid=%d compact=%d", s.rev.Load(), s.nextUID.Load(), s.compactRev)
}

// encodedState is everything a restore decides, byte for byte: the
// counters, the log it keeps, and per kind, in bucket order, every name
// with its object's encoding.
func encodedState(s *Store) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s records=%d wal=%x\n", counters(s), s.dur.records, s.dur.wal)
	for _, kind := range s.kindNames() {
		bk := s.kinds[kind]
		fmt.Fprintf(&b, "%s: %d objects\n", kind, len(bk.objs))
		for _, name := range bk.sorted {
			if obj := bk.objs[name]; obj != nil {
				fmt.Fprintf(&b, "  %s %T %x\n", name, obj, obj.AppendBinary(nil))
			} else {
				fmt.Fprintf(&b, "  %s missing\n", name)
			}
		}
	}
	return b.String()
}

// published is every object the store holds, by identity.
func published(s *Store) map[api.Object]bool {
	out := make(map[api.Object]bool)
	for _, b := range s.kinds {
		for _, obj := range b.objs {
			out[obj] = true
		}
	}
	return out
}

// crashAgainstFresh crashes s and, beside it, an empty store over a byte
// copy of s's medium, and fails unless the two restores agree: error,
// stats and encodedState. It returns how many restored objects s reused
// from before its crash and how many it decoded.
func crashAgainstFresh(t *testing.T, s *Store) (st RestoreStats, err error, reused, decoded int) {
	t.Helper()
	before := published(s)
	fresh, want, wantErr := restoreFrom(s.dur.checkpoint, s.dur.wal)
	st, err = s.Crash()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || st != want {
		t.Fatalf("restore over the pre-crash store: %v, %+v\nfresh restore: %v, %+v", err, st, wantErr, want)
	}
	if err != nil {
		// A failed restore leaves no objects and the counters of a fresh
		// store, whatever the store held before.
		if stored(s) != 0 || stored(fresh) != 0 || counters(s) != counters(fresh) {
			t.Fatalf("a failed restore left %d objects, %s; a fresh one %d, %s",
				stored(s), counters(s), stored(fresh), counters(fresh))
		}
	} else if got, want := encodedState(s), encodedState(fresh); got != want {
		t.Fatalf("restore over the pre-crash store differs from a fresh one\n--- reused\n%s--- fresh\n%s", got, want)
	}
	for obj := range published(s) {
		if before[obj] {
			reused++
		} else {
			decoded++
		}
	}
	return st, err, reused, decoded
}

// restatus is a status write's change: a status field for the kinds with a
// status subresource, an annotation (a whole-object write) for the others.
func restatus(obj api.Object, v int) {
	switch o := obj.(type) {
	case *api.Pod:
		o.Status.Message = fmt.Sprintf("m%d", v)
	case *api.Node:
		o.Status.HeartbeatTime += 1
	default:
		obj.GetMeta().Annotations = map[string]string{"v": fmt.Sprint(v)}
	}
}

// frame wraps a payload as a WAL frame with a good CRC.
func frame(payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
	return append(f, payload...)
}

// TestRestoreReuseMatchesFreshDecode: a restore that reuses the pre-crash
// objects restores exactly what a restore into an empty store makes of the
// same medium, over seeded random histories of creates, spec and status
// writes, deletes, checkpoints, torn tails of both kinds and crashes; and
// over frames and objects a reuse could wrongly take.
func TestRestoreReuseMatchesFreshDecode(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := simrand.New(seed).Fork("reuse")
		s := New(sim.NewEnv())
		s.EnableDurability(nil, nil)
		var crashes, torn, reused, decoded int
		for step := 0; step < 400; step++ {
			kind := testKinds[rng.Intn(len(testKinds))]
			name := fmt.Sprintf("obj-%d", rng.Intn(16))
			switch op := rng.Intn(20); {
			case op < 5:
				lbl := map[string]string{"tier": fmt.Sprintf("t%d", rng.Intn(3))}
				if _, err := s.Create(newTestObj(kind, name, lbl)); err != nil && !errors.Is(err, ErrExists) {
					t.Fatal(err)
				}
			case op < 9:
				if cur, err := edit(s, kind, name); err == nil {
					cur.GetMeta().Labels = map[string]string{"tier": fmt.Sprintf("t%d", rng.Intn(3))}
					if _, err := s.Update(cur); err != nil {
						t.Fatal(err)
					}
				}
			case op < 14:
				if cur, err := edit(s, kind, name); err == nil {
					restatus(cur, step)
					if _, err := s.UpdateStatus(cur); err != nil {
						t.Fatal(err)
					}
				}
			case op < 16:
				if err := s.Delete(kind, name); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			case op == 16:
				s.Checkpoint()
			case op == 17:
				if s.TearWALTail(rng.Intn(2) * (1 + rng.Intn(24))) { // 0 flips the last byte
					torn++
				}
			default:
				_, err, r, d := crashAgainstFresh(t, s)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				crashes, reused, decoded = crashes+1, reused+r, decoded+d
			}
		}
		t.Logf("seed %d: %d crashes (%d torn tails): %d objects reused, %d decoded", seed, crashes, torn, reused, decoded)
		if reused == 0 || decoded == 0 {
			t.Errorf("seed %d: the history reused %d and decoded %d objects; it must do both", seed, reused, decoded)
		}
	}

	// A record is looked up by its own header name: a frame with a good CRC
	// whose header names b but whose object is a, over a store holding a,
	// ends replay as a torn tail, as it does in an empty store.
	t.Run("header-name-disagrees", func(t *testing.T) {
		s := New(sim.NewEnv())
		s.EnableDurability(nil, nil)
		a, err := s.Create(pod("a"))
		if err != nil {
			t.Fatal(err)
		}
		payload := api.AppendVarint([]byte{walPut}, a.GetMeta().ResourceVersion)
		payload = a.AppendBinary(api.AppendString(api.AppendString(payload, "Pod"), "b"))
		s.dur.wal = append(s.dur.wal, frame(payload)...)
		st, _, _, _ := crashAgainstFresh(t, s)
		if !st.TornTail || st.Replayed != 1 {
			t.Fatalf("the mislabelled frame was replayed: %+v", st)
		}
	})

	// A revision match is no match: a store whose pods sit at the same
	// revisions as the medium's, with other contents, decodes every one.
	t.Run("same-revision-other-bytes", func(t *testing.T) {
		s := restorePods(t, 8, false, api.PodPending)
		s.dur = restorePods(t, 8, false, api.PodRunning).dur
		if _, err, reused, _ := crashAgainstFresh(t, s); err != nil || reused != 0 {
			t.Fatalf("%v, %d reused", err, reused)
		}
	})

	// A pre-crash object is reused only as the type the kind registry
	// decodes to: one of another Go type is decoded afresh, and one of a kind
	// nobody registered still fails the restore.
	t.Run("unregistered-type-or-kind", func(t *testing.T) {
		s := New(sim.NewEnv())
		s.EnableDurability(nil, nil)
		if _, err := s.Create(&impostor{*pod("a")}); err != nil {
			t.Fatal(err)
		}
		if _, err, reused, _ := crashAgainstFresh(t, s); err != nil || reused != 0 {
			t.Fatalf("an impostor pod: %v, %d reused", err, reused)
		}
		if obj, _ := s.Get("Pod", "a"); fmt.Sprintf("%T", obj) != "*api.Pod" {
			t.Fatalf("restored a %T", obj)
		}
		if _, err := s.Create(&stray{*pod("b")}); err != nil {
			t.Fatal(err)
		}
		if _, err, _, _ := crashAgainstFresh(t, s); !errors.Is(err, api.ErrUnregisteredKind) {
			t.Fatalf("a kind nobody registered restored: %v", err)
		}
	})
}

// impostor is a Pod by kind and bytes but not by Go type.
type impostor struct{ api.Pod }

func (p *impostor) DeepCopyObject() api.Object { return &impostor{*p.Pod.DeepCopyObject().(*api.Pod)} }

// stray is a kind no package registered.
type stray struct{ api.Pod }

func (*stray) Kind() string                 { return "Stray" }
func (p *stray) DeepCopyObject() api.Object { return &stray{*p.Pod.DeepCopyObject().(*api.Pod)} }

// restorePod is shaped like the pods the benchmark's workloads restore: two
// labels, two annotations, an owner, one container with two env entries and
// one request.
func restorePod(i int) *api.Pod {
	sp := fmt.Sprintf("sp-%04d", i)
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{
			Name:        fmt.Sprintf("pod-%04d", i),
			Labels:      map[string]string{"app": "train", "tier": "t1"},
			Annotations: map[string]string{"kubeshare/gpu-request": "0.4", "kubeshare/vgpu": "vgpu-0003"},
			OwnerName:   "SharePod/" + sp,
		},
		Spec: api.PodSpec{
			NodeName: "node-3",
			Containers: []api.Container{{
				Name: "main", Image: "train:latest",
				Env:      map[string]string{"NVIDIA_VISIBLE_DEVICES": "GPU-00000000-0000-0000-0000-000000000003", "KUBESHARE_GPU_REQUEST": "0.4"},
				Requests: api.ResourceList{api.ResourceCPU: 500},
			}},
		},
		Status: api.PodStatus{Phase: api.PodRunning},
	}
}

// restorePods returns a store holding n restorePods, from its checkpoint or
// (with an empty checkpoint) from its log.
func restorePods(t *testing.T, n int, checkpointed bool, phase api.PodPhase) *Store {
	s := New(sim.NewEnv())
	if !checkpointed {
		s.EnableDurability(nil, nil)
	}
	for i := 0; i < n; i++ {
		p := restorePod(i)
		p.Status.Phase = phase
		if _, err := s.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	if checkpointed {
		s.EnableDurability(nil, nil)
	}
	return s
}

// TestRestoreAllocs pins what a restart allocates per pod it must decode,
// from a checkpoint and from the log: each object is decoded from one copy
// of its frame and every string in it is a substring of that copy, so a
// pod's allocations do not grow with its string count (about 11 now; 30 when
// every string was its own allocation). Each measured restore crashes a
// store that holds every pod under its name with another phase, so it finds
// a candidate for every object, can reuse none, and decodes them all.
func TestRestoreAllocs(t *testing.T) {
	const pods, perPod, runs = 500, 12, 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, checkpointed := range []bool{true, false} {
		medium := restorePods(t, pods, checkpointed, api.PodRunning).dur
		var mallocs uint64
		for run := 0; run < runs; run++ {
			s := restorePods(t, pods, checkpointed, api.PodPending)
			s.dur = &Durable{checkpoint: bytes.Clone(medium.checkpoint), wal: bytes.Clone(medium.wal)}
			before := published(s)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			st, err := s.Crash()
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			if wantReplayed := map[bool]int{true: 0, false: pods}[checkpointed]; err != nil || st.Replayed != wantReplayed {
				t.Fatalf("checkpointed=%v: %v, replayed %d records, want %d", checkpointed, err, st.Replayed, wantReplayed)
			}
			for obj := range published(s) {
				if before[obj] {
					t.Fatalf("checkpointed=%v: %s was reused, not decoded", checkpointed, obj.GetMeta().Name)
				}
			}
		}
		got := float64(mallocs) / runs / pods
		t.Logf("checkpointed=%v: %.2f allocations per decoded pod", checkpointed, got)
		if got > perPod {
			t.Errorf("checkpointed=%v: %.1f allocations per decoded pod, limit %d", checkpointed, got, perPod)
		}
	}
}

// TestRestoreReuseAllocs: a restart with no write since the last one
// decodes nothing, so crashing a 500-pod store again costs under one
// allocation per pod (the new kind map, buckets and name lists), from the
// checkpoint and from the log alike.
func TestRestoreReuseAllocs(t *testing.T) {
	const pods = 500
	for _, checkpointed := range []bool{true, false} {
		s := restorePods(t, pods, checkpointed, api.PodRunning)
		if _, err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		before := published(s)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.Crash(); err != nil {
				t.Fatal(err)
			}
		})
		for obj := range published(s) {
			if !before[obj] {
				t.Fatalf("checkpointed=%v: %s was decoded, not reused", checkpointed, obj.GetMeta().Name)
			}
		}
		t.Logf("checkpointed=%v: %.0f allocations to restore %d unchanged pods", checkpointed, allocs, pods)
		if allocs >= pods {
			t.Errorf("checkpointed=%v: %.0f allocations to restore %d unchanged pods, want fewer than one per pod", checkpointed, allocs, pods)
		}
	}
}
