package main

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Pass (d): small loops that call one layer's exported functions and nothing
// above it, so a layer's cost per operation is read without the layers that
// sit on it in a full run. Every loop is one span; the metric is the span's
// length over the loop's op count. Op counts come from the workload's input
// (ops per job times the job count), clamped per loop so each is long enough
// to time and all of them together fit in a few seconds.

const (
	minDriverOps = 2000
	// drvTenants co-tenants share the one device of the sharing and devlib
	// drivers.
	drvTenants = 4
	// drvKernel is the kernel length of the device drivers; the virtual
	// length is irrelevant to host cost but must be positive.
	drvKernel = time.Millisecond
)

type driverRun struct {
	in   *input
	tr   *tracer
	root int
	m    map[string]float64
}

// ops scales a per-job op count by the workload's job count, up to limit.
func (d *driverRun) ops(perJob, limit int) int {
	return min(max(len(d.in.pods)*perJob, minDriverOps), limit)
}

// time runs loop as one span of the given layer and records ns per op. loop
// returns the ops it performed.
func (d *driverRun) time(metric, layer string, loop func() int) {
	id := d.tr.open(metric, layer, d.root)
	n := loop()
	d.tr.close(id)
	d.m[metric] = float64(d.tr.spans[id-1].dur()) / float64(max(n, 1))
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark driver: %v", err))
	}
}

func runDrivers(in *input, tr *tracer, m map[string]float64) {
	d := &driverRun{in: in, tr: tr, m: m}
	d.root = tr.open("pass.drivers", "benchmark", 0)
	defer tr.close(d.root)
	d.simDrivers()
	d.deviceDrivers()
	d.obsDrivers()
	d.schedDrivers()
	d.storeDrivers()
	d.durableDrivers()
}

// simDrivers: the event kernel alone — schedule+fire, a proc park/resume,
// a queue handoff between two procs.
func (d *driverRun) simDrivers() {
	n := d.ops(200, 200000)
	d.time("sim.drv_ns_per_timer", "sim", func() int {
		env := sim.NewEnv()
		fired := 0
		fn := func() { fired++ }
		for i := 0; i < n; i++ {
			env.After(time.Microsecond, fn)
			env.Step()
		}
		return fired
	})
	d.time("sim.drv_ns_per_switch", "sim", func() int {
		env := sim.NewEnv()
		env.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		env.Run()
		return n
	})
	d.time("sim.drv_ns_per_handoff", "sim", func() int {
		env := sim.NewEnv()
		q := sim.NewQueue[int](env)
		got := 0
		env.Go("consumer", func(p *sim.Proc) {
			for ; got < n; got++ {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
		env.Go("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Put(i)
				p.Yield()
			}
		})
		env.Run()
		return got
	})
}

// deviceDrivers: the simulated GPU alone, each sharing strategy's admission
// alone, and the device library's launch path over the token strategy. The
// sharing rows are the only place MPS and replica are timed.
func (d *driverRun) deviceDrivers() {
	n := d.ops(50, 100000)
	d.time("gpusim.drv_ns_per_kernel", "gpusim", func() int {
		env := sim.NewEnv()
		ctx := gpusim.NewDevice(env, gpusim.Config{NodeName: "drv"}).OpenContext("drv")
		env.Go("launcher", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				must(ctx.Launch(p, drvKernel))
			}
		})
		env.Run()
		return n
	})
	for _, mode := range []sharing.Mode{sharing.ModeToken, sharing.ModeMPS, sharing.ModeReplica} {
		d.time("sharing.drv_"+string(mode)+"_ns_per_admit", "sharing", func() int {
			env := sim.NewEnv()
			strat, err := devlib.NewBackend(env, devlib.Config{}).StrategyFor("GPU-drv", mode)
			must(err)
			per := n / drvTenants
			for t := 0; t < drvTenants; t++ {
				id := fmt.Sprintf("tenant-%d", t)
				must(strat.Register(id, sharing.Resources{Request: 1.0 / drvTenants, Limit: 1}))
				env.Go(id, func(p *sim.Proc) {
					for i := 0; i < per; i++ {
						lease, err := strat.Admit(p, id)
						must(err)
						p.Sleep(drvKernel)
						strat.Release(id, lease)
					}
				})
			}
			env.Run()
			return per * drvTenants
		})
	}
	n = d.ops(20, 20000)
	d.time("devlib.drv_ns_per_launch", "devlib", func() int {
		env := sim.NewEnv()
		dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "drv"})
		backend := devlib.NewBackend(env, devlib.Config{})
		strat, err := backend.StrategyFor(dev.UUID(), sharing.ModeToken)
		must(err)
		per := n / drvTenants
		for t := 0; t < drvTenants; t++ {
			id := fmt.Sprintf("tenant-%d", t)
			share := devlib.Share{Request: 1.0 / drvTenants, Limit: 1, Memory: 1.0 / drvTenants}
			f, err := devlib.NewFrontendWith(cuda.Open(dev, id), strat, id, share, backend.Config())
			must(err)
			env.Go(id, func(p *sim.Proc) {
				for i := 0; i < per; i++ {
					must(f.LaunchKernel(p, drvKernel))
				}
				must(f.Close(p))
			})
		}
		env.Run()
		return per * drvTenants
	})
}

// obsDrivers: one counter increment, one histogram observation, one span.
func (d *driverRun) obsDrivers() {
	n := d.ops(100, 100000)
	rt := obs.New(sim.NewEnv())
	rt.Tracer().SetSpanCap(0) // every span of the loop is recorded, none dropped
	ctr := rt.Counter("kubeshare_bench_driver_ops_total")
	hist := rt.Histogram("kubeshare_bench_driver_seconds")
	d.time("obs.drv_ns_per_counter", "obs", func() int {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
		return int(ctr.Value())
	})
	d.time("obs.drv_ns_per_observe", "obs", func() int {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i%1000) / 1000)
		}
		return n
	})
	d.time("obs.drv_ns_per_span", "obs", func() int {
		for i := 0; i < n; i++ {
			rt.Tracer().Start("bench", "op", "SharePod/drv").End()
		}
		return rt.Tracer().Len()
	})
}

const (
	drvPoolDevices = 1024 // core.Schedule ranks a half-full pool of this size
	drvBacklog     = 2000 // schedfw places a backlog of this size onto an empty pool
)

// schedDrivers: Algorithm 1 alone on a prepared pool, and the framework
// driver alone (apiserver + schedfw, nothing below) draining a backlog.
func (d *driverRun) schedDrivers() {
	n := d.ops(2, 5000)
	d.time("core.drv_ns_per_schedule", "core", func() int {
		ids := 0
		pool := &core.Pool{
			FreePhysical: map[string]int{"n0": 0},
			NewID:        func() string { ids++; return fmt.Sprintf("new-%d", ids) },
		}
		for i := 0; i < drvPoolDevices; i++ {
			dev := core.NewDeviceState(fmt.Sprintf("d%04d", i), "n0")
			if i%2 == 0 {
				dev.Idle, dev.Util, dev.Mem = false, 0.5, 0.5
			}
			pool.Devices = append(pool.Devices, dev)
		}
		// Requests small enough that n of them never exhaust the pool.
		req := core.Request{Util: 0.5 * drvPoolDevices / 2 / float64(n) / 2, Mem: 1e-6}
		for i := 0; i < n; i++ {
			if dec := core.Schedule(req, pool); dec.Outcome != core.Assigned {
				panic(fmt.Sprintf("benchmark driver: core.Schedule #%d: %v %s", i, dec.Outcome, dec.Reason))
			}
		}
		return n
	})
	d.time("schedfw.drv_ns_per_decision", "schedfw", func() int {
		env := sim.NewEnv()
		srv := apiserver.New(env)
		const gpusPerNode = 8
		must(createNodes(srv, drvBacklog/2/gpusPerNode, gpusPerNode)) // two sharePods to a GPU
		for i := 0; i < drvBacklog; i++ {
			_, err := core.SharePods(srv).Create(drvSharePod(i))
			must(err)
		}
		sched := schedfw.New(env, srv, schedfw.WithBatchSize(churnBatch))
		sched.Start()
		env.Run()
		return int(sched.Stats().Decisions)
	})
}

// drvSharePod is a half-device sharePod, two to a GPU.
func drvSharePod(i int) *core.SharePod {
	return &core.SharePod{
		ObjectMeta: api.ObjectMeta{
			Name:   fmt.Sprintf("sp-%06d", i),
			Labels: map[string]string{"app": "drv", "tier": "bench"},
		},
		Spec: core.SharePodSpec{
			GPURequest: 0.5, GPULimit: 1, GPUMem: 0.5,
			Pod: api.PodSpec{Containers: []api.Container{{
				Name: "c", Image: "i", Env: map[string]string{"A": "1", "B": "2"},
			}}},
		},
	}
}

// storeDrivers: object deep-copies, the volatile store's verbs, and an
// apiserver status mutation fanned out to three watchers.
func (d *driverRun) storeDrivers() {
	n := d.ops(4, 10000)
	sp := drvSharePod(0)
	pod := &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: "pod", Labels: sp.Labels, Annotations: map[string]string{"a": "1", "b": "2"}},
		Spec:       sp.Spec.Pod,
	}
	var sink api.Object
	d.time("api.drv_ns_per_sharepod_copy", "api", func() int {
		for i := 0; i < n; i++ {
			sink = sp.DeepCopyObject()
		}
		return n
	})
	d.time("api.drv_ns_per_pod_copy", "api", func() int {
		for i := 0; i < n; i++ {
			sink = pod.DeepCopyObject()
		}
		return n
	})
	_ = sink

	env := sim.NewEnv()
	st := store.New(env)
	objs := make([]api.Object, n)
	d.time("store.drv_ns_per_create", "store", func() int {
		for i := range objs {
			var err error
			objs[i], err = st.Create(drvSharePod(i))
			must(err)
		}
		return n
	})
	d.time("store.drv_ns_per_update", "store", func() int {
		for i := range objs {
			var err error
			objs[i], err = st.Update(objs[i])
			must(err)
		}
		return n
	})
	d.time("store.drv_ns_per_list", "store", func() int {
		lists := max(1, 100000/n)
		for i := 0; i < lists; i++ {
			if got := len(st.List(core.KindSharePod)); got != n {
				panic(fmt.Sprintf("benchmark driver: List returned %d of %d", got, n))
			}
		}
		return lists
	})
	d.time("store.drv_ns_per_watch_event", "store", func() int {
		q := st.Watch(core.KindSharePod, false)
		seen := 0
		env.Go("watcher", func(p *sim.Proc) {
			for ; seen < n; seen++ {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
		for i := range objs {
			var err error
			objs[i], err = st.UpdateStatus(objs[i])
			must(err)
		}
		env.Run()
		st.StopWatch(q)
		return seen
	})

	d.time("apiserver.drv_ns_per_mutate", "apiserver", func() int {
		env := sim.NewEnv()
		srv := apiserver.New(env)
		sps := core.SharePods(srv)
		for i := 0; i < n; i++ {
			_, err := sps.Create(drvSharePod(i))
			must(err)
		}
		for wi := 0; wi < 3; wi++ {
			q := sps.Watch(false)
			env.Go("watcher", func(p *sim.Proc) {
				for seen := 0; seen < n; seen++ {
					if _, ok := q.Get(p); !ok {
						return
					}
				}
			})
		}
		for i := 0; i < n; i++ {
			_, err := sps.MutateStatus(fmt.Sprintf("sp-%06d", i), func(sp *core.SharePod) error {
				sp.Status.Phase = core.SharePodRunning
				return nil
			})
			must(err)
		}
		env.Run()
		return n
	})
}

// durableDrivers: the store's log — a logged write, a checkpoint, a replay.
// The volatile store rows above must not move with these.
func (d *driverRun) durableDrivers() {
	n := d.ops(4, 10000)
	st := store.New(sim.NewEnv())
	st.EnableDurability(func(int) {}, func(int) {})
	objs := make([]api.Object, n)
	d.time("store.drv_ns_per_durable_write", "store", func() int {
		for i := range objs {
			var err error
			objs[i], err = st.Create(drvSharePod(i))
			must(err)
		}
		return n
	})
	d.time("store.drv_ns_per_checkpoint_obj", "store", func() int {
		st.Checkpoint()
		return n
	})
	for i := range objs {
		_, err := st.UpdateStatus(objs[i]) // the log the replay reads back
		must(err)
	}
	d.time("store.drv_ns_per_replay_record", "store", func() int {
		stats, err := st.Crash()
		must(err)
		return stats.Replayed
	})
}
