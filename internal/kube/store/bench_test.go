package store_test

import (
	"fmt"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// benchPod is shaped like a bound pod: labels, an owner, one container with
// a handful of env vars and requests.
func benchPod(i int) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{
			Name:      fmt.Sprintf("pod-%04d", i),
			Labels:    map[string]string{"app": "bench", "kubeshare/sharepod": fmt.Sprintf("sp-%04d", i)},
			OwnerName: fmt.Sprintf("SharePod/sp-%04d", i),
		},
		Spec: api.PodSpec{
			NodeName: "node-3",
			Containers: []api.Container{{
				Name: "main", Image: "train:latest",
				Env: map[string]string{
					"NVIDIA_VISIBLE_DEVICES": "GPU-00000000-0000-0000-0000-000000000003", "KUBESHARE_GPU_REQUEST": "0.4",
					"KUBESHARE_GPU_LIMIT": "0.8", "KUBESHARE_GPU_MEM": "0.25", "LD_PRELOAD": "/kubeshare/libgemhook.so.1",
				},
				Requests: api.ResourceList{api.ResourceCPU: 500, api.ResourceMemory: 1 << 30},
			}},
		},
		Status: api.PodStatus{Phase: api.PodRunning},
	}
}

// durableStore returns a store with durability on and n pods in it.
func durableStore(b testing.TB, n int) (*store.Store, []api.Object) {
	s := store.New(sim.NewEnv())
	s.EnableDurability(nil, nil)
	objs := make([]api.Object, n)
	for i := range objs {
		var err error
		if objs[i], err = s.Create(benchPod(i)); err != nil {
			b.Fatal(err)
		}
	}
	return s, objs
}

// BenchmarkDurableWrite: one status write with the log on. Logging encodes in
// place at the log's end, so allocs/op is the store write's own one (the new
// revision) — TestLoggingAWriteAllocatesNothing pins it. A checkpoint every
// 4096 writes keeps the log, and the benchmark's memory, bounded.
func BenchmarkDurableWrite(b *testing.B) {
	s, objs := durableStore(b, 1)
	cur := objs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if cur, err = s.UpdateStatus(cur); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			s.Checkpoint()
		}
	}
}

// TestLoggingAWriteAllocatesNothing: a logged status write allocates what a
// volatile one does, the new revision, because the WAL frame is encoded in
// place at the log's end (it read 25 while every record went through
// encoding/json twice). Counted as BenchmarkDurableWrite counts allocs/op.
func TestLoggingAWriteAllocatesNothing(t *testing.T) {
	s, objs := durableStore(t, 1)
	cur, i := objs[0], 0
	allocs := testing.AllocsPerRun(4096, func() {
		var err error
		if cur, err = s.UpdateStatus(cur); err != nil {
			t.Fatal(err)
		}
		if i++; i%4096 == 0 {
			s.Checkpoint()
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations per logged status write, want 1", allocs)
	}
}

// BenchmarkCheckpoint: one checkpoint of 1000 pods.
func BenchmarkCheckpoint(b *testing.B) {
	s, _ := durableStore(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(s.Checkpoint()))
	}
}

// BenchmarkRestore: one crash/restore from a 1000-pod image and a
// 1000-record log.
func BenchmarkRestore(b *testing.B) {
	s, objs := durableStore(b, 1000)
	s.Checkpoint()
	for _, obj := range objs {
		if _, err := s.UpdateStatus(obj); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Crash()
		if err != nil || st.Replayed != 1000 {
			b.Fatalf("restore: %v, %+v", err, st)
		}
		b.SetBytes(int64(st.CheckpointBytes + st.WALBytes))
	}
}
