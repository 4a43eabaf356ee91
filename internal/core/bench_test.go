package core_test

import (
	"fmt"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
)

// benchPopulate fills an API server with n placed sharePods over 4-GPU
// nodes, mirroring the Fig 11 harness.
func benchPopulate(n int) *apiserver.Server {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	nodes := n/8 + 1
	for i := 0; i < nodes; i++ {
		node := &api.Node{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("node-%d", i)},
			Status: api.NodeStatus{
				Capacity:    api.ResourceList{api.ResourceGPU: 4},
				Allocatable: api.ResourceList{api.ResourceGPU: 4},
				Ready:       true,
			},
		}
		if _, err := apiserver.Nodes(srv).Create(node); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		sp := &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%05d", i)},
			Spec: core.SharePodSpec{
				GPURequest: 0.2, GPULimit: 0.3, GPUMem: 0.2,
				GPUID:    fmt.Sprintf("vgpu-%04d", i%(nodes*4)),
				NodeName: fmt.Sprintf("node-%d", i%nodes),
				Pod:      api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
			},
			Status: core.SharePodStatus{Phase: core.SharePodRunning},
		}
		if _, err := core.SharePods(srv).Create(sp); err != nil {
			panic(err)
		}
	}
	return srv
}

// BenchmarkAlgorithm1 measures a single Schedule call against pools of
// varying size — the pure-decision cost underneath Figure 11.
func BenchmarkAlgorithm1(b *testing.B) {
	for _, devices := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			mk := func() *core.Pool {
				n := 0
				pool := &core.Pool{
					FreePhysical: map[string]int{"n0": 4},
					NewID: func() string {
						n++
						return fmt.Sprintf("new-%d", n)
					},
				}
				for i := 0; i < devices; i++ {
					d := core.NewDeviceState(fmt.Sprintf("d%03d", i), "n0")
					d.Idle = false
					d.Util = float64(i%10) / 10
					d.Mem = 0.5
					pool.Devices = append(pool.Devices, d)
				}
				return pool
			}
			pool := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Schedule(core.Request{Util: 0.05, Mem: 0.01}, pool)
				if i%512 == 511 {
					b.StopTimer()
					pool = mk() // residuals exhausted; rebuild
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkBuildPool measures pool derivation from API state by a full
// relist, the reference VerifySnapshot holds the scheduler's snapshot to.
func BenchmarkBuildPool(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("sharepods=%d", n), func(b *testing.B) {
			srv := benchPopulate(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.BuildPool(srv, 1)
			}
		})
	}
}
