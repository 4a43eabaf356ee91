package kubeshare_test

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"kubeshare"
	"kubeshare/internal/experiments"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// train is an image that launches n kernels of 10 ms each.
func train(n int) kubeshare.ImageEntrypoint {
	return func(ctx *kubeshare.ContainerCtx) error {
		for i := 0; i < n; i++ {
			if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	}
}

// sharePod is a one-container sharePod asking for the given shares.
func sharePod(name, image string, request, limit, mem float64) *kubeshare.SharePod {
	return &kubeshare.SharePod{
		ObjectMeta: kubeshare.ObjectMeta{Name: name},
		Spec: kubeshare.SharePodSpec{
			GPURequest: request, GPULimit: limit, GPUMem: mem,
			Pod: kubeshare.PodSpec{Containers: []kubeshare.Container{{Name: "main", Image: image}}},
		},
	}
}

// Example_workflow walks KubeShare's workflow, steps 2-6 of the paper
// authors' seven-step demo. pod1 asks for 0.4 of a GPU: KubeShare-Sched
// puts it on an idle GPU under a fresh GPUID, and KubeShare-DevMgr creates
// that vGPU's holder pod, which asks Kubernetes for one whole GPU, reads the
// physical GPU's UUID from it, and starts pod1's bound pod with
// NVIDIA_VISIBLE_DEVICES set to that UUID. A neighbour asking for 0.2 shares
// pod1's anti-affinity label, so it gets a vGPU of its own, on the other
// node. pod2 asks for 0.6 and fits both vGPUs: best fit picks the fuller
// one, pod1's GPUID, whose UUID is already known, so pod2's bound pod starts
// on pod1's GPU at once.
func Example_workflow() {
	s, err := kubeshare.New(kubeshare.WithNodes(2), kubeshare.WithGPUsPerNode(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	s.RegisterImage("demo/train", train(500))
	// running parks p until sharePod name runs: a name-filtered watch wakes
	// only on that sharePod's own events.
	running := func(p *sim.Proc, name string) (*kubeshare.SharePod, error) {
		q := s.Watch(kubeshare.KindSharePod, kubeshare.WatchOptions{Name: name, Replay: true})
		defer s.StopWatch(q)
		for {
			ev, ok := q.Get(p)
			if !ok {
				return nil, fmt.Errorf("watch closed waiting for %s", name)
			}
			if sp := ev.Object.(*kubeshare.SharePod); sp.Status.Phase == kubeshare.SharePodRunning {
				return sp, nil
			}
		}
	}
	jobs := []struct {
		name    string
		request float64
		anti    string
	}{{"pod1", 0.4, "spread"}, {"neighbour", 0.2, "spread"}, {"pod2", 0.6, ""}}
	s.Go("user", func(p *sim.Proc) {
		for _, job := range jobs {
			sp := sharePod(job.name, "demo/train", job.request, 1, 0.2)
			sp.Spec.AntiAffinity = job.anti
			if _, err := s.CreateSharePod(sp); err != nil {
				fmt.Println(err)
				return
			}
			sp, err := running(p, job.name)
			if err != nil {
				fmt.Println(err)
				return
			}
			v, err := s.VGPUs().Get(sp.Spec.GPUID)
			if err != nil {
				fmt.Println(err)
				return
			}
			holder, err := s.Pods().Get(v.Status.HolderPod)
			if err != nil {
				fmt.Println(err)
				return
			}
			bound, err := s.Pods().Get(sp.Status.BoundPod)
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("%s asks %.1f: node %s, GPUID %s\n", job.name, job.request, sp.Spec.NodeName, sp.Spec.GPUID)
			fmt.Printf("  vGPU holder %s on %s holds %d GPU, UUID %s\n", holder.Name, holder.Spec.NodeName,
				holder.Spec.Request(kubeshare.ResourceGPU), v.Status.UUID)
			fmt.Printf("  bound pod %s: NVIDIA_VISIBLE_DEVICES=%s\n", bound.Name, bound.Spec.Containers[0].Env["NVIDIA_VISIBLE_DEVICES"])
		}
	})
	s.Run()
	for _, job := range jobs {
		sp, err := s.SharePods().Get(job.name)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s %s on %s\n", job.name, sp.Status.Phase, sp.Status.UUID)
	}
	// Output:
	// pod1 asks 0.4: node node-0, GPUID vgpu-0001
	//   vGPU holder vgpu-0001-holder on node-0 holds 1 GPU, UUID GPU-01636fd2f66970a7
	//   bound pod sharepod-pod1: NVIDIA_VISIBLE_DEVICES=GPU-01636fd2f66970a7
	// neighbour asks 0.2: node node-1, GPUID vgpu-0002
	//   vGPU holder vgpu-0002-holder on node-1 holds 1 GPU, UUID GPU-09f886d2fb401c5c
	//   bound pod sharepod-neighbour: NVIDIA_VISIBLE_DEVICES=GPU-09f886d2fb401c5c
	// pod2 asks 0.6: node node-0, GPUID vgpu-0001
	//   vGPU holder vgpu-0001-holder on node-0 holds 1 GPU, UUID GPU-01636fd2f66970a7
	//   bound pod sharepod-pod2: NVIDIA_VISIBLE_DEVICES=GPU-01636fd2f66970a7
	// pod1 Succeeded on GPU-01636fd2f66970a7
	// neighbour Succeeded on GPU-09f886d2fb401c5c
	// pod2 Succeeded on GPU-01636fd2f66970a7
}

// Example_quickstart builds a one-node cluster with KubeShare installed and
// runs two fractional training jobs whose gpu_requests sum to 1.0: best fit
// places both on the same vGPU, so one physical GPU executes both jobs'
// kernels.
func Example_quickstart() {
	// One node with 4 simulated V100s; KubeShare's controllers and the vGPU
	// device library are installed automatically.
	s, err := kubeshare.New(kubeshare.WithNodes(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	// A GPU application is a Go function: it receives a CUDA handle whose
	// calls the vGPU device library intercepts and throttles.
	s.RegisterImage("demo/train", func(ctx *kubeshare.ContainerCtx) error {
		if _, err := ctx.CUDA.MemAlloc(ctx.Proc, 2<<30); err != nil {
			return err
		}
		return train(800)(ctx)
	})
	s.Go("client", func(p *sim.Proc) {
		// gpu_request is the guaranteed minimum compute share, gpu_limit the
		// elastic maximum, gpu_mem a quarter of the 16 GiB device memory.
		for _, job := range []struct {
			name           string
			request, limit float64
		}{{"alice", 0.6, 0.8}, {"bob", 0.4, 0.6}} {
			if _, err := s.CreateSharePod(sharePod(job.name, "demo/train", job.request, job.limit, 0.25)); err != nil {
				fmt.Println(err)
				return
			}
		}
		for _, name := range []string{"alice", "bob"} {
			// A name-filtered watch parks until the sharePod terminates,
			// without waking on the rest of the cluster's churn.
			q := s.Watch(kubeshare.KindSharePod, kubeshare.WatchOptions{Name: name, Replay: true})
			var sp *kubeshare.SharePod
			for sp == nil || !sp.Terminated() {
				ev, ok := q.Get(p)
				if !ok {
					fmt.Println("watch closed waiting for", name)
					return
				}
				sp = ev.Object.(*kubeshare.SharePod)
			}
			s.StopWatch(q)
			fmt.Printf("%-6s %-10s gpuid=%-10s uuid=%s  wall=%v\n",
				name, sp.Status.Phase, sp.Spec.GPUID, sp.Status.UUID,
				(sp.Status.FinishTime - sp.Status.RunningTime).Round(time.Millisecond))
		}
	})
	s.Run()
	// Each job ran 8 s of device work, both on one GPU.
	for i, dev := range s.Cluster.Nodes[0].GPUs {
		fmt.Printf("gpu%d busy=%v\n", i, dev.BusyTime().Round(time.Millisecond))
	}
	fmt.Printf("virtual time elapsed: %v\n", s.Now().Round(time.Millisecond))
	// Output:
	// alice  Succeeded  gpuid=vgpu-0001  uuid=GPU-01636ed2f6696ef4  wall=16.79s
	// bob    Succeeded  gpuid=vgpu-0001  uuid=GPU-01636ed2f6696ef4  wall=16.8s
	// gpu0 busy=0s
	// gpu1 busy=16s
	// gpu2 busy=0s
	// gpu3 busy=0s
	// virtual time elapsed: 19.165s
}

// Example_inferenceServing packs the paper's motivating workload: a model
// server's GPU usage tracks its client request rate (Figure 5), so three
// low-traffic servers share one device instead of holding three.
func Example_inferenceServing() {
	s, err := kubeshare.New(kubeshare.WithNodes(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	// 4, 8 and 12 requests/s of a 25 ms forward pass: demands 0.1, 0.2 and
	// 0.3, each with twice that as burst headroom.
	servers := []struct {
		name string
		rate float64
	}{{"search-ranker", 4}, {"image-tagger", 8}, {"translator", 12}}
	s.Go("deploy", func(p *sim.Proc) {
		for _, srv := range servers {
			demand := srv.rate * 0.025
			sp := sharePod(srv.name, workload.ServeImage, demand, 2*demand, 0.2)
			sp.Spec.Pod.Containers[0].Env = map[string]string{
				workload.EnvRate:     fmt.Sprintf("%.1f", srv.rate),
				workload.EnvDuration: "120",
				workload.EnvSeed:     "7",
			}
			if _, err := s.CreateSharePod(sp); err != nil {
				fmt.Println(err)
				return
			}
		}
	})
	s.Run()
	fmt.Println("server          phase      gpuid      physical GPU")
	onGPU := map[string]bool{}
	for _, srv := range servers {
		sp, err := s.SharePods().Get(srv.name)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-15s %-10s %-10s %s\n", srv.name, sp.Status.Phase, sp.Spec.GPUID, sp.Status.UUID)
		onGPU[sp.Status.UUID] = true
	}
	var busy time.Duration
	for _, dev := range s.Cluster.Nodes[0].GPUs {
		busy += dev.BusyTime()
	}
	fmt.Printf("physical GPUs used: %d of %d\n", len(onGPU), len(s.Cluster.Nodes[0].GPUs))
	fmt.Printf("aggregate device busy time: %v over %v of serving\n",
		busy.Round(time.Millisecond), s.Now().Round(time.Second))
	// Output:
	// server          phase      gpuid      physical GPU
	// search-ranker   Succeeded  vgpu-0001  GPU-01636ed2f6696ef4
	// image-tagger    Succeeded  vgpu-0001  GPU-01636ed2f6696ef4
	// translator      Succeeded  vgpu-0001  GPU-01636ed2f6696ef4
	// physical GPUs used: 1 of 4
	// aggregate device busy time: 1m11.375s over 2m2s of serving
}

// Example_interference runs §5.5's locality scenario twice. Job B is
// fragile (it needs ≈0.75 of a GPU but requests 0.4), Job A resilient
// (needs ≈0.3, requests 0.5). Without constraints best fit packs the two Bs
// onto one GPU, where each slows the other ≈1.5×; an anti-affinity label on
// the Bs forces them onto different vGPUs, and the first-class GPUID makes
// the placement visible.
func Example_interference() {
	// run submits two Bs and then one A on one node of two GPUs, the Bs
	// tagged with antiAffinity, and prints where each job ran and for how
	// long.
	run := func(antiAffinity string) error {
		s, err := kubeshare.New(kubeshare.WithNodes(1), kubeshare.WithGPUsPerNode(2))
		if err != nil {
			return err
		}
		jobs := []struct{ name, profile, anti, hostMS string }{
			// B: 10 ms kernels with 3.3 ms host time between them (≈0.75 duty);
			// A: 23.3 ms of host time (≈0.3 duty).
			{"b-one", "B", antiAffinity, "3.3"},
			{"b-two", "B", antiAffinity, "3.3"},
			{"a-one", "A", "", "23.3"},
		}
		var submitErr error
		s.Go("client", func(p *sim.Proc) {
			// Staggered so the Bs are placed first.
			for i, job := range jobs {
				if i > 0 {
					p.Sleep(500 * time.Millisecond)
				}
				request := 0.4
				if job.profile == "A" {
					request = 0.5
				}
				sp := sharePod(job.name, workload.TrainImage, request, 1, 0.2)
				sp.Spec.AntiAffinity = job.anti
				sp.Spec.Pod.Containers[0].Env = map[string]string{
					workload.EnvSteps:        "1500",
					workload.EnvStepKernelMS: "10",
					workload.EnvStepHostMS:   job.hostMS,
				}
				if _, err := s.CreateSharePod(sp); err != nil {
					submitErr = err
					return
				}
			}
		})
		s.Run()
		if submitErr != nil {
			return submitErr
		}
		fmt.Println("job    kind  gpuid      wall")
		for _, job := range jobs {
			sp, err := s.SharePods().Get(job.name)
			if err != nil {
				return err
			}
			if sp.Status.Phase != kubeshare.SharePodSucceeded {
				return fmt.Errorf("%s: %s (%s)", job.name, sp.Status.Phase, sp.Status.Message)
			}
			fmt.Printf("%-6s %-5s %-10s %v\n", job.name, job.profile, sp.Spec.GPUID,
				(sp.Status.FinishTime - sp.Status.RunningTime).Round(time.Millisecond))
		}
		return nil
	}
	for _, label := range []string{"", "spread-the-Bs"} {
		fmt.Printf("anti-affinity on B: %q\n", label)
		if err := run(label); err != nil {
			fmt.Println(err)
		}
	}
	// Output:
	// anti-affinity on B: ""
	// job    kind  gpuid      wall
	// b-one  B     vgpu-0001  31.501s
	// b-two  B     vgpu-0001  31.511s
	// a-one  A     vgpu-0002  50.708s
	// anti-affinity on B: "spread-the-Bs"
	// job    kind  gpuid      wall
	// b-one  B     vgpu-0001  26.101s
	// b-two  B     vgpu-0002  20.708s
	// a-one  A     vgpu-0001  51.461s
}

// Example_trainingIsolation prints Figure 6's usage timeline in 20 s
// buckets: three training jobs with staggered arrivals share one GPU, and
// the vGPU device library throttles each at its gpu_limit, guarantees its
// gpu_request, and hands the residual out elastically as tenants come and
// go (0.6 → 0.5/0.5 → 0.3/0.4/0.3 and back). The quick run staggers
// arrivals 100 s apart; the paper used 200 s.
func Example_trainingIsolation() {
	res, err := experiments.Fig6(experiments.Quick)
	if err != nil {
		fmt.Println(err)
		return
	}
	jobs := []string{"job-a", "job-b", "job-c"}
	rows := map[time.Duration][]float64{}
	for j, name := range jobs {
		for _, p := range res.Usage[name].Downsample(20 * time.Second).Points {
			if rows[p.T] == nil {
				rows[p.T] = make([]float64, len(jobs))
			}
			rows[p.T][j] = p.V
		}
	}
	fmt.Println("time     job-a  job-b  job-c")
	for _, t := range slices.Sorted(maps.Keys(rows)) {
		r := rows[t]
		fmt.Printf("%-8v %5.2f  %5.2f  %5.2f\n", t, r[0], r[1], r[2])
	}
	// Output:
	// time     job-a  job-b  job-c
	// 0s        0.60   0.00   0.00
	// 20s       0.60   0.00   0.00
	// 40s       0.60   0.00   0.00
	// 1m0s      0.60   0.00   0.00
	// 1m20s     0.60   0.00   0.00
	// 1m40s     0.48   0.51   0.00
	// 2m0s      0.50   0.50   0.00
	// 2m20s     0.50   0.50   0.00
	// 2m40s     0.50   0.50   0.00
	// 3m0s      0.50   0.50   0.00
	// 3m20s     0.40   0.45   0.30
	// 3m40s     0.30   0.40   0.30
	// 4m0s      0.30   0.40   0.30
	// 4m20s     0.30   0.40   0.30
	// 4m40s     0.30   0.40   0.30
	// 5m0s      0.30   0.40   0.30
	// 5m20s     0.30   0.40   0.30
	// 5m40s     0.45   0.45   0.00
	// 6m0s      0.50   0.50   0.00
	// 6m20s     0.50   0.50   0.00
	// 6m40s     0.50   0.50   0.00
	// 7m0s      0.50   0.50   0.00
	// 7m20s     0.50   0.50   0.00
	// 7m40s     0.55   0.50   0.00
	// 8m0s      0.60   0.00   0.00
	// 8m20s     0.60   0.00   0.00
	// 8m40s     0.60   0.00   0.00
	// 9m0s      0.60   0.00   0.00
}

// Example_replicatedServing scales a SharePodSet, the replica controller
// over sharePods (§4.6 composability): scaling it drives KubeShare-Sched
// and DevMgr, which pack the fractional replicas onto as few GPUs as their
// gpu_requests allow. A refused write is printed, so it shows in the output.
func Example_replicatedServing() {
	s, err := kubeshare.New(kubeshare.WithNodes(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	set := &kubeshare.SharePodSet{
		ObjectMeta: kubeshare.ObjectMeta{Name: "ranker"},
		Replicas:   3,
		Template:   sharePod("", workload.ServeImage, 0.25, 0.5, 0.15).Spec,
	}
	set.Template.Pod.Containers[0].Env = map[string]string{
		workload.EnvRate:     "8",
		workload.EnvDuration: "3600",
		workload.EnvSeed:     "11",
	}
	step := func(what string, write func() error) {
		s.Go(what, func(p *sim.Proc) {
			if err := write(); err != nil {
				fmt.Printf("%s: %v\n", what, err)
			}
		})
		s.RunFor(30 * time.Second)
		replicas, ready := 0, 0
		if cur, err := s.SharePodSets().Get("ranker"); err == nil {
			replicas, ready = cur.Replicas, cur.ReadyReplicas
		}
		gpus := map[string]bool{}
		for _, sp := range s.SharePods().List() {
			if !sp.Terminated() && sp.Status.UUID != "" {
				gpus[sp.Status.UUID] = true
			}
		}
		fmt.Printf("%-14s replicas=%d ready=%d physical-GPUs=%d vGPUs=%d\n",
			what, replicas, ready, len(gpus), s.VGPUs().Count())
	}
	scale := func(n int) func() error {
		return func() error {
			_, err := s.SharePodSets().Mutate("ranker", func(cur *kubeshare.SharePodSet) error {
				cur.Replicas = n
				return nil
			})
			return err
		}
	}
	step("create 3", func() error { _, err := s.SharePodSets().Create(set); return err })
	// A traffic spike: 6 × 0.25 is 1.5 GPUs of demand.
	step("scale to 6", scale(6))
	// Quiet hours.
	step("scale to 2", scale(2))
	step("delete", func() error { return s.SharePodSets().Delete("ranker") })
	// Output:
	// create 3       replicas=3 ready=3 physical-GPUs=1 vGPUs=1
	// scale to 6     replicas=6 ready=6 physical-GPUs=2 vGPUs=2
	// scale to 2     replicas=2 ready=2 physical-GPUs=1 vGPUs=1
	// delete         replicas=0 ready=0 physical-GPUs=0 vGPUs=0
}

// ExampleWithPoolPolicy runs one short job under each idle-vGPU policy of
// §4.4: OnDemand returns the vGPU's GPU to Kubernetes when its last tenant
// leaves, Reservation keeps the vGPU idle in the pool for the next sharePod.
func ExampleWithPoolPolicy() {
	for _, policy := range []struct {
		name string
		opt  kubeshare.Option
	}{{"OnDemand", kubeshare.WithPoolPolicy(kubeshare.OnDemand)}, {"Reservation", kubeshare.WithPoolPolicy(kubeshare.Reservation)}} {
		s, err := kubeshare.New(policy.opt)
		if err != nil {
			fmt.Println(err)
			return
		}
		s.RegisterImage("demo/train", train(10))
		s.Go("client", func(p *sim.Proc) {
			if _, err := s.CreateSharePod(sharePod("job", "demo/train", 0.5, 1, 0.2)); err != nil {
				fmt.Println(err)
			}
		})
		s.Run()
		st := s.Stats()
		fmt.Printf("%-11s finished=%d vGPUs=%d idle=%d\n", policy.name, st.TerminatedSharePods, st.VGPUs, st.IdleVGPUs)
	}
	// Output:
	// OnDemand    finished=1 vGPUs=0 idle=0
	// Reservation finished=1 vGPUs=1 idle=1
}

// ExampleWithExtenderScheduler submits three contending 0.6 requests to a
// node of two GPUs, under KubeShare-Sched and under the scheduler-extender
// baseline of Table 1. KubeShare-Sched never over-commits a device: the
// third request queues. The extender places round-robin and puts two 0.6
// shares on one GPU.
func ExampleWithExtenderScheduler() {
	for _, arm := range []struct {
		name string
		opts []kubeshare.Option
	}{{"KubeShare-Sched", nil}, {"extender", []kubeshare.Option{kubeshare.WithExtenderScheduler()}}} {
		s, err := kubeshare.New(append(arm.opts, kubeshare.WithGPUsPerNode(2))...)
		if err != nil {
			fmt.Println(err)
			return
		}
		names := []string{"ctr-a", "ctr-b", "ctr-c"}
		s.Go("client", func(p *sim.Proc) {
			for _, name := range names {
				sp := sharePod(name, workload.ServeImage, 0.6, 0.6, 0.2)
				sp.Spec.Pod.Containers[0].Env = map[string]string{workload.EnvRate: "0", workload.EnvDuration: "3600"}
				if _, err := s.CreateSharePod(sp); err != nil {
					fmt.Println(err)
				}
				p.Sleep(100 * time.Millisecond)
			}
		})
		s.RunFor(time.Minute)
		fmt.Println(arm.name)
		for _, name := range names {
			sp, err := s.SharePods().Get(name)
			if err != nil {
				fmt.Println(err)
				return
			}
			if sp.Spec.GPUID == "" {
				fmt.Printf("  %s queued\n", name)
			} else {
				fmt.Printf("  %s %s on %s\n", name, sp.Status.Phase, sp.Spec.GPUID)
			}
		}
	}
	// Output:
	// KubeShare-Sched
	//   ctr-a Running on vgpu-0001
	//   ctr-b Running on vgpu-0002
	//   ctr-c queued
	// extender
	//   ctr-a Running on ext-node-0-gpu0
	//   ctr-b Running on ext-node-0-gpu1
	//   ctr-c Running on ext-node-0-gpu0
}

// ExampleWithGangTimeout holds a SharePodSet gang of three 0.6 replicas on a
// node of two GPUs: the gang is complete but cannot be placed whole, so it
// holds the capacity it could reserve against younger work until its hold
// times out, and a younger 0.5 job waits that long.
func ExampleWithGangTimeout() {
	for _, arm := range []struct {
		name string
		opts []kubeshare.Option
	}{{"default timeout", nil}, {"timeout 5s", []kubeshare.Option{kubeshare.WithGangTimeout(5 * time.Second)}}} {
		s, err := kubeshare.New(append(arm.opts, kubeshare.WithGPUsPerNode(2))...)
		if err != nil {
			fmt.Println(err)
			return
		}
		s.RegisterImage("demo/train", train(10))
		s.Go("client", func(p *sim.Proc) {
			gang := &kubeshare.SharePodSet{
				ObjectMeta: kubeshare.ObjectMeta{Name: "team"},
				Replicas:   3,
				Gang:       true,
				Template:   sharePod("", "demo/train", 0.6, 0.6, 0.2).Spec,
			}
			if _, err := s.SharePodSets().Create(gang); err != nil {
				fmt.Println(err)
				return
			}
			p.Sleep(time.Second)
			if _, err := s.CreateSharePod(sharePod("solo", "demo/train", 0.5, 0.5, 0.2)); err != nil {
				fmt.Println(err)
			}
		})
		s.RunFor(time.Minute)
		sp, err := s.SharePods().Get("solo")
		if err != nil {
			fmt.Println(err)
			return
		}
		placed := 0
		for _, m := range s.SharePods().List() {
			if m.Name != "solo" && m.Spec.GPUID != "" {
				placed++
			}
		}
		fmt.Printf("%s: solo %s, scheduled at %v; gang members placed: %d of 3\n",
			arm.name, sp.Status.Phase, sp.Status.ScheduledTime.Round(time.Second), placed)
	}
	// Output:
	// default timeout: solo Succeeded, scheduled at 30s; gang members placed: 0 of 3
	// timeout 5s: solo Succeeded, scheduled at 5s; gang members placed: 0 of 3
}

// ExampleWithoutKubeShare builds the paper's native baseline: Kubernetes
// alone, whole GPUs only. A native pod asking for one GPU runs; a sharePod
// is stored but, with no KubeShare controllers, nothing ever places it.
func ExampleWithoutKubeShare() {
	s, err := kubeshare.New(kubeshare.WithoutKubeShare())
	if err != nil {
		fmt.Println(err)
		return
	}
	s.RegisterImage("demo/train", train(10))
	s.Go("client", func(p *sim.Proc) {
		pod := &kubeshare.Pod{
			ObjectMeta: kubeshare.ObjectMeta{Name: "native"},
			Spec: kubeshare.PodSpec{Containers: []kubeshare.Container{{
				Name: "main", Image: "demo/train",
				Requests: kubeshare.ResourceList{kubeshare.ResourceGPU: 1},
			}}},
		}
		if _, err := s.Pods().Create(pod); err != nil {
			fmt.Println(err)
		}
		if _, err := s.CreateSharePod(sharePod("shared", "demo/train", 0.5, 1, 0.2)); err != nil {
			fmt.Println(err)
		}
	})
	s.RunFor(time.Minute)
	pod, err := s.Pods().Get("native")
	if err != nil {
		fmt.Println(err)
		return
	}
	sp, err := s.SharePods().Get("shared")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("KubeShare installed: %v\n", s.KS != nil)
	fmt.Printf("native pod: %s on %s\n", pod.Status.Phase, pod.Spec.NodeName)
	fmt.Printf("sharePod: phase %q, gpuid %q\n", sp.Status.Phase, sp.Spec.GPUID)
	// Output:
	// KubeShare installed: false
	// native pod: Succeeded on node-0
	// sharePod: phase "", gpuid ""
}

// ExampleWithoutObservability runs one job with telemetry on and off. Off,
// the cluster records no span, event or metric; telemetry only observes, so
// the job runs the same either way.
func ExampleWithoutObservability() {
	for _, arm := range []struct {
		name string
		opts []kubeshare.Option
	}{{"obs on", nil}, {"obs off", []kubeshare.Option{kubeshare.WithoutObservability()}}} {
		s, err := kubeshare.New(arm.opts...)
		if err != nil {
			fmt.Println(err)
			return
		}
		s.RegisterImage("demo/train", train(10))
		s.Go("client", func(p *sim.Proc) {
			if _, err := s.CreateSharePod(sharePod("job", "demo/train", 0.5, 1, 0.2)); err != nil {
				fmt.Println(err)
			}
		})
		s.Run()
		sp, err := s.SharePods().Get("job")
		if err != nil {
			fmt.Println(err)
			return
		}
		m := s.Cluster.Obs.Snapshot()
		fmt.Printf("%s: job %s at %v; spans recorded: %v, events: %v, metrics: %v\n",
			arm.name, sp.Status.Phase, sp.Status.FinishTime.Round(time.Millisecond),
			len(s.Cluster.Obs.Tracer().Spans()) > 0, len(s.Cluster.Obs.Events()) > 0,
			len(m.Counters)+len(m.Gauges)+len(m.Histograms) > 0)
	}
	// Output:
	// obs on: job Succeeded at 2.466s; spans recorded: true, events: true, metrics: true
	// obs off: job Succeeded at 2.466s; spans recorded: false, events: false, metrics: false
}
