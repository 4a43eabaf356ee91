package kubeshare

import (
	"testing"
	"time"

	"kubeshare/internal/sim"
)

// TestSharePodRequestBudget pins what one sharePod's life costs the API
// server on a one-node cluster: the requests of a minute with one sharePod
// minus those of the same minute without it (node heartbeats and lifecycle
// sweeps cancel out). Every component reads what it watches from its own
// cache, so each read left is the Get inside a mutate's read-modify-write,
// or the vGPU reconciler's one read of the VGPU object per pass. A new read
// or write must name the step it serves here.
func TestSharePodRequestBudget(t *testing.T) {
	steps := []struct {
		step          string
		reads, writes int64
	}{
		{"the user creates the sharePod", 0, 1},
		{"KubeShare-Sched binds nodeName, GPUID and Scheduled (Bind)", 1, 1},
		{"DevMgr's vGPU pass finds no VGPU, creates it and its holder pod", 1, 2},
		{"the kubelet reports the holder Running (MutateStatus)", 1, 1},
		{"DevMgr's vGPU pass on the holder's report writes the UUID (MutateStatus)", 2, 1},
		{"DevMgr creates the bound pod and records it on the sharePod (MutateStatus)", 1, 2},
		{"the kubelet reports the bound pod Running (MutateStatus)", 1, 1},
		{"DevMgr mirrors Running onto the sharePod (MutateStatus)", 1, 1},
		{"the kubelet reports the bound pod Succeeded (MutateStatus)", 1, 1},
		{"DevMgr mirrors Succeeded onto the sharePod (MutateStatus)", 1, 1},
		{"DevMgr's vGPU pass on the last tenant's exit deletes the holder and the VGPU", 1, 2},
		{"DevMgr's vGPU pass on the holder's deletion forgets the vGPU", 1, 0},
	}
	var wantReads, wantWrites int64
	for _, s := range steps {
		wantReads += s.reads
		wantWrites += s.writes
	}

	requests := func(submit bool) (reads, writes int64) {
		s := newSim(t, WithNodes(1))
		s.RegisterImage("budget", func(ctx *ContainerCtx) error {
			return ctx.CUDA.LaunchKernel(ctx.Proc, 100*time.Millisecond)
		})
		if submit {
			s.Go("submit", func(*sim.Proc) {
				if _, err := s.CreateSharePod(&SharePod{
					ObjectMeta: ObjectMeta{Name: "sp"},
					Spec: SharePodSpec{GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25,
						Pod: PodSpec{Containers: []Container{{Name: "c", Image: "budget"}}}},
				}); err != nil {
					t.Error(err)
				}
			})
		}
		s.RunFor(time.Minute)
		o := s.Cluster.Obs
		reads = o.Counter("kubeshare_apiserver_read_requests_total").Value()
		writes = o.Counter("kubeshare_apiserver_write_requests_total").Value()
		if sp, err := s.SharePods().Get("sp"); submit && (err != nil || sp.Status.Phase != SharePodSucceeded) {
			t.Fatalf("sharePod %v (%v), want Succeeded within the minute", sp, err)
		}
		if n := s.VGPUs().Count(); n != 0 {
			t.Fatalf("%d vGPUs left after the minute", n)
		}
		return reads, writes
	}
	idleReads, idleWrites := requests(false)
	reads, writes := requests(true)
	if reads-idleReads != wantReads || writes-idleWrites != wantWrites {
		t.Fatalf("one sharePod cost %d reads and %d writes, want %d and %d",
			reads-idleReads, writes-idleWrites, wantReads, wantWrites)
	}
}
