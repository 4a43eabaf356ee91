package kubelet

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/deviceplugin"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/sim"
)

// rig builds one kubelet against an apiserver, with an optional GPU plugin,
// and no scheduler (tests bind pods manually via Spec.NodeName).
func rig(t *testing.T, gpus int) (*sim.Env, *apiserver.Server, *Kubelet, *runtime.ImageRegistry) {
	t.Helper()
	env := sim.NewEnv()
	srv := apiserver.New(env)
	images := runtime.NewImageRegistry()
	return env, srv, startKubelet(t, env, srv, images, "n0", gpus), images
}

// startKubelet starts one more node's kubelet on srv.
func startKubelet(t *testing.T, env *sim.Env, srv *apiserver.Server, images *runtime.ImageRegistry, node string, gpus int) *Kubelet {
	t.Helper()
	var devs []*gpusim.Device
	for i := 0; i < gpus; i++ {
		devs = append(devs, gpusim.NewDevice(env, gpusim.Config{Index: i, NodeName: node}))
	}
	rt := runtime.New(env, images, devs)
	devmgr := deviceplugin.NewManager()
	if gpus > 0 {
		if err := devmgr.Register(deviceplugin.NewNvidiaPlugin(devs)); err != nil {
			t.Fatal(err)
		}
	}
	kl := New(env, srv, devmgr, rt, Config{NodeName: node})
	if err := kl.Start(); err != nil {
		t.Fatal(err)
	}
	return kl
}

func boundPod(name string, req api.ResourceList) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: api.PodSpec{
			NodeName:   "n0",
			Containers: []api.Container{{Name: "c", Image: "app", Requests: req}},
		},
	}
}

func TestNodeRegistrationIncludesPluginCapacity(t *testing.T) {
	_, srv, _, _ := rig(t, 4)
	node, err := apiserver.Nodes(srv).Get("n0")
	if err != nil {
		t.Fatal(err)
	}
	if node.Status.Allocatable[api.ResourceGPU] != 4 {
		t.Fatalf("allocatable GPUs = %d", node.Status.Allocatable[api.ResourceGPU])
	}
	if !node.Status.Ready {
		t.Fatal("node not ready")
	}
}

// TestNodeLabelsAreTheNodesOwn: the store publishes the Node the kubelet
// registers without copying it, so the kubelet must not hand it the config's
// label map — a later write to that map would change the published Node
// behind every reader's and label watch's back.
func TestNodeLabelsAreTheNodesOwn(t *testing.T) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	storetest.Install(t, srv.Store())
	lbls := map[string]string{"zone": "a"}
	kl := New(env, srv, deviceplugin.NewManager(), runtime.New(env, runtime.NewImageRegistry(), nil), Config{NodeName: "n0", Labels: lbls})
	if err := kl.Start(); err != nil {
		t.Fatal(err)
	}
	lbls["zone"] = "b"
	lbls["extra"] = "x"
	node, err := apiserver.Nodes(srv).Get("n0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(node.Labels, map[string]string{"zone": "a"}) {
		t.Fatalf("published node labels = %v, want the config's at Start", node.Labels)
	}
	if got := srv.WatchFiltered("Node", apiserver.WatchOptions{Label: "extra", Replay: true}).Len(); got != 0 {
		t.Fatalf("a watch on label extra replays %d nodes, want 0", got)
	}
	kl.Stop()
}

func TestPodRunsAndSucceeds(t *testing.T) {
	env, srv, _, images := rig(t, 0)
	images.Register("app", func(ctx *runtime.Ctx) error {
		ctx.Proc.Sleep(time.Second)
		return nil
	})
	env.Go("t", func(p *sim.Proc) {
		apiserver.Pods(srv).Create(boundPod("p1", nil))
	})
	env.Run()
	pod, _ := apiserver.Pods(srv).Get("p1")
	if pod.Status.Phase != api.PodSucceeded {
		t.Fatalf("phase = %s (%s)", pod.Status.Phase, pod.Status.Message)
	}
	if pod.Status.StartTime == 0 || pod.Status.FinishTime-pod.Status.StartTime != time.Second {
		t.Fatalf("timestamps: %+v", pod.Status)
	}
}

func TestPodForOtherNodeIgnored(t *testing.T) {
	env, srv, _, images := rig(t, 0)
	images.Register("app", func(ctx *runtime.Ctx) error { return nil })
	env.Go("t", func(p *sim.Proc) {
		pod := boundPod("elsewhere", nil)
		pod.Spec.NodeName = "n1"
		apiserver.Pods(srv).Create(pod)
	})
	env.RunUntil(5 * time.Second)
	pod, _ := apiserver.Pods(srv).Get("elsewhere")
	if pod.Status.Phase != "" {
		t.Fatalf("foreign pod processed: %s", pod.Status.Phase)
	}
}

func TestDeviceAllocationInjectsEnv(t *testing.T) {
	env, srv, kl, images := rig(t, 2)
	var visible string
	images.Register("app", func(ctx *runtime.Ctx) error {
		if ctx.Pod.Name == "g" {
			visible = ctx.Env[deviceplugin.EnvVisibleDevices]
		}
		ctx.Proc.Sleep(time.Second)
		return nil
	})
	env.Go("t", func(p *sim.Proc) {
		apiserver.Pods(srv).Create(boundPod("g", api.ResourceList{api.ResourceGPU: 2}))
		p.Sleep(time.Second)
		// While g runs it holds both devices: one more GPU pod fails admission.
		apiserver.Pods(srv).Create(boundPod("late", api.ResourceList{api.ResourceGPU: 1}))
	})
	env.Run()
	if strings.Count(visible, ",") != 1 {
		t.Fatalf("NVIDIA_VISIBLE_DEVICES = %q, want two devices", visible)
	}
	if late, _ := apiserver.Pods(srv).Get("late"); late.Status.Phase != api.PodFailed {
		t.Fatalf("pod admitted while g held both devices: %s", late.Status.Phase)
	}
	// All devices returned after completion.
	if got := kl.DeviceManager().Capacity()[api.ResourceGPU]; got != 2 {
		t.Fatalf("capacity corrupted: %d", got)
	}
}

func TestDeviceAllocationFailureFailsPod(t *testing.T) {
	env, srv, _, images := rig(t, 1)
	images.Register("app", func(ctx *runtime.Ctx) error { return nil })
	env.Go("t", func(p *sim.Proc) {
		apiserver.Pods(srv).Create(boundPod("greedy", api.ResourceList{api.ResourceGPU: 3}))
	})
	env.Run()
	pod, _ := apiserver.Pods(srv).Get("greedy")
	if pod.Status.Phase != api.PodFailed {
		t.Fatalf("phase = %s, want Failed (only 1 GPU on node)", pod.Status.Phase)
	}
	var msgs []string
	for _, e := range srv.Obs().Events() {
		if e.Reason == "FailedAllocation" {
			msgs = append(msgs, e.Message)
		}
	}
	if want := `device allocation of nvidia.com/gpu: deviceplugin: "nvidia.com/gpu": want 3 devices, 1 free`; len(msgs) != 1 || msgs[0] != want {
		t.Fatalf("FailedAllocation messages %q, want [%q]", msgs, want)
	}
}

func TestInstantFailureDoesNotReadmit(t *testing.T) {
	// Regression: a container failing in the same instant it starts used to
	// re-admit forever off stale watch snapshots.
	env, srv, _, images := rig(t, 0)
	runs := 0
	images.Register("app", func(ctx *runtime.Ctx) error {
		runs++
		return errInstant
	})
	env.Go("t", func(p *sim.Proc) {
		apiserver.Pods(srv).Create(boundPod("crash", nil))
	})
	env.RunUntil(time.Minute)
	if runs != 1 {
		t.Fatalf("container ran %d times, want 1", runs)
	}
	pod, _ := apiserver.Pods(srv).Get("crash")
	if pod.Status.Phase != api.PodFailed {
		t.Fatalf("phase = %s", pod.Status.Phase)
	}
}

var errInstant = errInstantT{}

type errInstantT struct{}

func (errInstantT) Error() string { return "instant failure" }

func TestDeletionDuringAdmissionFreesDevices(t *testing.T) {
	env, srv, kl, images := rig(t, 2)
	images.Register("app", func(ctx *runtime.Ctx) error {
		ctx.Proc.Hibernate()
		return nil
	})
	env.Go("t", func(p *sim.Proc) {
		apiserver.Pods(srv).Create(boundPod("doomed", api.ResourceList{api.ResourceGPU: 2}))
		p.Sleep(30 * time.Millisecond) // inside the sync+pull window
		apiserver.Pods(srv).Delete("doomed")
		p.Sleep(time.Second)
		// Devices must be free again for a fresh pod.
		apiserver.Pods(srv).Create(boundPod("next", api.ResourceList{api.ResourceGPU: 2}))
		p.Sleep(2 * time.Second)
		next, _ := apiserver.Pods(srv).Get("next")
		if next.Status.Phase != api.PodRunning {
			t.Errorf("next pod phase %s; devices leaked by deleted pod", next.Status.Phase)
		}
		apiserver.Pods(srv).Delete("next")
	})
	env.Run()
	if got := kl.DeviceManager().Capacity()[api.ResourceGPU]; got != 2 {
		t.Fatalf("capacity corrupted: %d", got)
	}
}

func TestMultiContainerPodWaitsForAll(t *testing.T) {
	env, srv, _, images := rig(t, 0)
	images.Register("fast", func(ctx *runtime.Ctx) error { ctx.Proc.Sleep(time.Second); return nil })
	images.Register("slow", func(ctx *runtime.Ctx) error { ctx.Proc.Sleep(3 * time.Second); return nil })
	env.Go("t", func(p *sim.Proc) {
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "multi"},
			Spec: api.PodSpec{
				NodeName: "n0",
				Containers: []api.Container{
					{Name: "a", Image: "fast"},
					{Name: "b", Image: "slow"},
				},
			},
		}
		apiserver.Pods(srv).Create(pod)
	})
	env.Run()
	pod, _ := apiserver.Pods(srv).Get("multi")
	if pod.Status.Phase != api.PodSucceeded {
		t.Fatalf("phase = %s", pod.Status.Phase)
	}
	if got := pod.Status.FinishTime - pod.Status.StartTime; got != 3*time.Second {
		t.Fatalf("pod finished after %v, want the slow container's 3s", got)
	}
}

func TestAllocationFailureReleasesGrantedDevices(t *testing.T) {
	// A pod whose second container cannot be allocated must release the
	// devices already granted to its first — otherwise a partially admitted
	// pod pins GPUs forever.
	env, srv, kl, images := rig(t, 2)
	images.Register("app", func(ctx *runtime.Ctx) error {
		ctx.Proc.Sleep(time.Second)
		return nil
	})
	env.Go("t", func(p *sim.Proc) {
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "partial"},
			Spec: api.PodSpec{
				NodeName: "n0",
				Containers: []api.Container{
					{Name: "a", Image: "app", Requests: api.ResourceList{api.ResourceGPU: 1}},
					{Name: "b", Image: "app", Requests: api.ResourceList{api.ResourceGPU: 2}},
				},
			},
		}
		apiserver.Pods(srv).Create(pod)
		p.Sleep(time.Second)
		// Both GPUs must be free again: a follow-up pod wanting the whole
		// node admits cleanly.
		apiserver.Pods(srv).Create(boundPod("next", api.ResourceList{api.ResourceGPU: 2}))
	})
	env.Run()
	pod, _ := apiserver.Pods(srv).Get("partial")
	if pod.Status.Phase != api.PodFailed {
		t.Fatalf("partial pod phase = %s, want Failed", pod.Status.Phase)
	}
	next, _ := apiserver.Pods(srv).Get("next")
	if next.Status.Phase != api.PodSucceeded {
		t.Fatalf("next pod phase = %s (%s); granted devices leaked by the failed admission",
			next.Status.Phase, next.Status.Message)
	}
	if got := kl.DeviceManager().Capacity()[api.ResourceGPU]; got != 2 {
		t.Fatalf("capacity corrupted: %d", got)
	}
}

func TestContainerStartFailureStopsStartedSiblings(t *testing.T) {
	// When a later container fails to start, the already started siblings
	// must be stopped and the pod's devices freed.
	env, srv, _, images := rig(t, 1)
	siblingRan := false
	images.Register("hang", func(ctx *runtime.Ctx) error {
		siblingRan = true
		ctx.Proc.Sleep(time.Hour)
		return nil
	})
	env.Go("t", func(p *sim.Proc) {
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "halfstart"},
			Spec: api.PodSpec{
				NodeName: "n0",
				Containers: []api.Container{
					{Name: "a", Image: "hang", Requests: api.ResourceList{api.ResourceGPU: 1}},
					{Name: "b", Image: "no-such-image"},
				},
			},
		}
		apiserver.Pods(srv).Create(pod)
		p.Sleep(2 * time.Second)
		apiserver.Pods(srv).Create(boundPod("next", api.ResourceList{api.ResourceGPU: 1}))
	})
	images.Register("app", func(ctx *runtime.Ctx) error { return nil })
	env.RunUntil(time.Minute)
	pod, _ := apiserver.Pods(srv).Get("halfstart")
	if pod.Status.Phase != api.PodFailed {
		t.Fatalf("phase = %s, want Failed", pod.Status.Phase)
	}
	// The sibling was stopped inside its start window — its entrypoint must
	// never have run (a leaked container would enter it once started, and hang).
	if siblingRan {
		t.Fatal("started sibling container kept running after start failure")
	}
	next, _ := apiserver.Pods(srv).Get("next")
	if next.Status.Phase != api.PodSucceeded {
		t.Fatalf("next pod phase = %s; device not freed after start failure", next.Status.Phase)
	}
}

func TestNodeFlapDoesNotDoubleSchedule(t *testing.T) {
	// A transient NotReady (flap) with the kubelet alive must not disturb a
	// running pod, and a crash/restart cycle must not re-admit the stale pod:
	// the restart deletes it and the container runs exactly once.
	env, srv, kl, images := rig(t, 0)
	runs := 0
	images.Register("app", func(ctx *runtime.Ctx) error {
		runs++
		ctx.Proc.Sleep(time.Hour)
		return nil
	})
	env.Go("t", func(p *sim.Proc) {
		apiserver.Pods(srv).Create(boundPod("p1", nil))
		p.Sleep(2 * time.Second)
		// Flap: someone marks the node NotReady; the next heartbeat
		// re-asserts Ready and nothing is rescheduled.
		apiserver.Nodes(srv).MutateStatus("n0", func(n *api.Node) error {
			n.Status.Ready = false
			return nil
		})
		p.Sleep(3 * time.Second)
		if n, _ := apiserver.Nodes(srv).Get("n0"); !n.Status.Ready {
			t.Error("heartbeat did not re-assert Ready after the flap")
		}
		if runs != 1 {
			t.Errorf("container ran %d times after flap, want 1", runs)
		}
		// Hard flap: crash and restart. The stale pod object is deleted on
		// restart, and the replayed watch must not re-admit it.
		kl.Crash()
		p.Sleep(time.Second)
		if err := kl.Restart(); err != nil {
			t.Errorf("restart: %v", err)
		}
		p.Sleep(5 * time.Second)
	})
	env.RunUntil(time.Minute)
	if _, err := apiserver.Pods(srv).Get("p1"); !apiserver.IsNotFound(err) {
		t.Fatal("stale pod object survived the node restart")
	}
	if runs != 1 {
		t.Fatalf("container ran %d times across the flap, want exactly 1", runs)
	}
}

func TestKubeletStopKillsEverything(t *testing.T) {
	env, srv, kl, images := rig(t, 0)
	images.Register("app", func(ctx *runtime.Ctx) error {
		ctx.Proc.Hibernate()
		return nil
	})
	env.Go("t", func(p *sim.Proc) {
		apiserver.Pods(srv).Create(boundPod("p1", nil))
		p.Sleep(2 * time.Second)
		kl.Stop()
	})
	env.Run()
	if env.Now() > 10*time.Second {
		t.Fatalf("containers survived kubelet stop until %v", env.Now())
	}
}

// TestStopOrderDeterministic: a node crash kills its containers in pod-name
// order, every run — each kill takes the next sequence id at that instant, so
// the order of the walk over the workers is the order containers die in
// (library close, token release, device free, trace lines). 64 fresh rigs, one
// order.
func TestStopOrderDeterministic(t *testing.T) {
	names := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for run := 0; run < 64; run++ {
		env, srv, kl, images := rig(t, 0)
		var died []string
		images.Register("app", func(ctx *runtime.Ctx) error {
			defer func() { died = append(died, ctx.Pod.Name) }()
			ctx.Proc.Hibernate()
			return nil
		})
		env.Go("t", func(p *sim.Proc) {
			for i := len(names) - 1; i >= 0; i-- {
				apiserver.Pods(srv).Create(boundPod(names[i], nil))
			}
			p.Sleep(10 * time.Second)
			kl.Crash()
		})
		env.RunUntil(time.Minute)
		if !reflect.DeepEqual(died, names) {
			t.Fatalf("run %d: containers died in order %v, want %v", run, died, names)
		}
	}
}

// envPlugin is a one-device plugin whose allocation sets key to the
// plugin's own resource name.
type envPlugin struct{ name, key string }

func (e envPlugin) ResourceName() string { return e.name }
func (e envPlugin) ListDevices() []deviceplugin.Device {
	return []deviceplugin.Device{{ID: e.name + "-0", Healthy: true}}
}
func (e envPlugin) Allocate([]string) (deviceplugin.AllocateResponse, error) {
	return deviceplugin.AllocateResponse{Env: map[string]string{e.key: e.name}}, nil
}

// TestSharedEnvKeyDeterministic: a pod asking for two extended resources
// whose plugins set the same environment key sees one value on every run —
// the kubelet allocates in resource-name order, so the later name's value
// wins. 64 fresh rigs, one outcome.
func TestSharedEnvKeyDeterministic(t *testing.T) {
	const key = "SHARED"
	for run := 0; run < 64; run++ {
		env, srv, kl, images := rig(t, 0)
		for _, name := range []string{"b.example/dev", "a.example/dev"} {
			if err := kl.DeviceManager().Register(envPlugin{name: name, key: key}); err != nil {
				t.Fatal(err)
			}
		}
		got := ""
		images.Register("app", func(ctx *runtime.Ctx) error {
			got = ctx.Env[key]
			return nil
		})
		env.Go("t", func(p *sim.Proc) {
			apiserver.Pods(srv).Create(boundPod("two", api.ResourceList{"a.example/dev": 1, "b.example/dev": 1}))
		})
		env.Run()
		if got != "b.example/dev" {
			t.Fatalf("run %d: %s = %q, want b.example/dev's value", run, key, got)
		}
	}
}

// knownNames reads a reflector's cache — the last snapshot per object it has
// delivered, which relists diff against — through reflection: production code
// has no use for it, so the reflector exports no accessor.
func knownNames(r *apiserver.Reflector) []string {
	var names []string
	for _, k := range reflect.ValueOf(r).Elem().FieldByName("known").MapKeys() {
		names = append(names, k.String())
	}
	sort.Strings(names)
	return names
}

// TestKubeletWatchScopedToNode: two kubelets on one apiserver each receive,
// cache and run only their own node's pods, and a pod bound after creation —
// which reaches its kubelet as a Modified event, never an Added one — is
// admitted exactly once however many more events follow.
func TestKubeletWatchScopedToNode(t *testing.T) {
	env, srv, k0, images := rig(t, 0)
	k1 := startKubelet(t, env, srv, images, "n1", 0)
	ran := map[string]int{}
	images.Register("app", func(ctx *runtime.Ctx) error {
		ran[ctx.Pod.Name+"@"+ctx.Pod.Spec.NodeName]++
		ctx.Proc.Sleep(time.Minute)
		return nil
	})
	pods := apiserver.Pods(srv)
	env.Go("t", func(p *sim.Proc) {
		pods.Create(boundPod("a0", nil))
		late := boundPod("late", nil)
		late.Spec.NodeName = ""
		pods.Create(late)
		for _, name := range []string{"b0", "b1"} {
			pod := boundPod(name, nil)
			pod.Spec.NodeName = "n1"
			pods.Create(pod)
		}
		p.Sleep(time.Second)
		if _, err := pods.Mutate("late", func(pod *api.Pod) error { pod.Spec.NodeName = "n1"; return nil }); err != nil {
			t.Error(err)
		}
		// More events for the late pod while its admission is in flight.
		for i := 0; i < 3; i++ {
			if _, err := pods.Mutate("late", func(pod *api.Pod) error {
				pod.Annotations = map[string]string{"touch": fmt.Sprint(i)}
				return nil
			}); err != nil {
				t.Error(err)
			}
			p.Sleep(20 * time.Millisecond)
		}
	})
	env.RunUntil(10 * time.Second)
	if want := map[string]int{"a0@n0": 1, "b0@n1": 1, "b1@n1": 1, "late@n1": 1}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("containers started: %v, want %v", ran, want)
	}
	if got, want := knownNames(k0.reflector), []string{"a0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("n0's reflector caches %v, want %v", got, want)
	}
	if got, want := knownNames(k1.reflector), []string{"b0", "b1", "late"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("n1's reflector caches %v, want %v", got, want)
	}
	for _, name := range []string{"a0", "b0", "b1", "late"} {
		if pod, err := pods.Get(name); err != nil || pod.Status.Phase != api.PodRunning {
			t.Fatalf("pod %s: %+v, %v; want Running", name, pod, err)
		}
	}
}
