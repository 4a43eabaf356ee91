package workload

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
)

func newWorkloadCluster(t *testing.T, nodes int) (*sim.Env, *kube.Cluster) {
	t.Helper()
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(nodes, 4))
	if err != nil {
		t.Fatal(err)
	}
	RegisterImages(c)
	return env, c
}

func TestTrainingJobRunsToCompletion(t *testing.T) {
	env, c := newWorkloadCluster(t, 1)
	pod := &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: "train"},
		Spec: api.PodSpec{Containers: []api.Container{{
			Name: "c", Image: TrainImage,
			Env:      map[string]string{EnvSteps: "50"},
			Requests: api.ResourceList{api.ResourceGPU: 1},
		}}},
	}
	env.Go("t", func(p *sim.Proc) { c.Pods().Create(pod) })
	env.Run()
	got, _ := c.Pods().Get("train")
	if got.Status.Phase != api.PodSucceeded {
		t.Fatalf("phase %s (%s)", got.Status.Phase, got.Status.Message)
	}
	// 50 steps × 10ms = 500ms of device time.
	dev := c.Nodes[0].GPUs
	var busy time.Duration
	for _, d := range dev {
		busy += d.BusyTime()
	}
	if busy < 500*time.Millisecond || busy > 600*time.Millisecond {
		t.Fatalf("device busy %v, want ≈500ms", busy)
	}
}

func TestTrainingJobWithoutGPUFails(t *testing.T) {
	env, c := newWorkloadCluster(t, 1)
	pod := &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: "nogpu"},
		Spec: api.PodSpec{Containers: []api.Container{{
			Name: "c", Image: TrainImage,
		}}},
	}
	env.Go("t", func(p *sim.Proc) { c.Pods().Create(pod) })
	env.Run()
	got, _ := c.Pods().Get("nogpu")
	if got.Status.Phase != api.PodFailed {
		t.Fatalf("phase %s, want Failed", got.Status.Phase)
	}
}

// TestInferenceUsageProportionalToRate is the Figure 5 relationship: GPU
// usage tracks the client request rate linearly until saturation.
func TestInferenceUsageProportionalToRate(t *testing.T) {
	utilAt := func(rate float64) float64 {
		env, c := newWorkloadCluster(t, 1)
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "serve"},
			Spec: api.PodSpec{Containers: []api.Container{{
				Name: "c", Image: ServeImage,
				Env: map[string]string{
					EnvRate:     formatF(rate),
					EnvDuration: "60",
					EnvSeed:     "7",
				},
				Requests: api.ResourceList{api.ResourceGPU: 1},
			}}},
		}
		env.Go("t", func(p *sim.Proc) { c.Pods().Create(pod) })
		env.Run()
		var dev *gpusim.Device
		for _, d := range c.Nodes[0].GPUs {
			if d.BusyTime() > 0 {
				dev = d
			}
		}
		if dev == nil {
			t.Fatal("no device used")
		}
		return dev.BusyTime().Seconds() / 60.0
	}
	// 25ms kernels: rate r → expected utilization r×0.025.
	lo, mid, hi := utilAt(4), utilAt(12), utilAt(24)
	for _, tc := range []struct{ got, want float64 }{
		{lo, 0.1}, {mid, 0.3}, {hi, 0.6},
	} {
		if math.Abs(tc.got-tc.want) > 0.05 {
			t.Fatalf("utilization %.3f, want ≈%.2f (Fig 5 proportionality)", tc.got, tc.want)
		}
	}
	if !(lo < mid && mid < hi) {
		t.Fatal("utilization not increasing with request rate")
	}
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func TestGeneratorDeterministic(t *testing.T) {
	cfg := GeneratorConfig{
		Jobs: 50, MeanInterArrival: 5 * time.Second,
		DemandMean: 0.3, DemandVar: 2, JobDuration: 40 * time.Second, Seed: 42,
	}
	a, b := Generate(cfg), Generate(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between identical configs", i)
		}
	}
}

func TestGeneratorStatistics(t *testing.T) {
	cfg := GeneratorConfig{
		Jobs: 2000, MeanInterArrival: 5 * time.Second,
		DemandMean: 0.3, DemandVar: 2, JobDuration: 40 * time.Second, Seed: 1,
	}
	jobs := Generate(cfg)
	var sumGap, prev time.Duration
	sumDemand := 0.0
	for _, j := range jobs {
		if j.Arrival < prev {
			t.Fatal("arrivals not monotonic")
		}
		sumGap += j.Arrival - prev
		prev = j.Arrival
		if j.Demand < 0.05 || j.Demand > 0.95 {
			t.Fatalf("demand %v out of bounds", j.Demand)
		}
		sumDemand += j.Demand
	}
	meanGap := sumGap / time.Duration(len(jobs))
	if meanGap < 4500*time.Millisecond || meanGap > 5500*time.Millisecond {
		t.Fatalf("mean inter-arrival %v, want ≈5s", meanGap)
	}
	if got := sumDemand / float64(len(jobs)); math.Abs(got-0.3) > 0.02 {
		t.Fatalf("mean demand %.3f, want ≈0.3", got)
	}
}

func TestGeneratorZeroVarianceIsConstantDemand(t *testing.T) {
	jobs := Generate(GeneratorConfig{
		Jobs: 10, MeanInterArrival: time.Second,
		DemandMean: 0.4, DemandVar: 0, JobDuration: time.Second, Seed: 3,
	})
	for _, j := range jobs {
		if j.Demand != 0.4 {
			t.Fatalf("demand %v, want exactly 0.4", j.Demand)
		}
	}
}

func TestSpecBuilders(t *testing.T) {
	j := Job{Name: "j", Demand: 0.5, Duration: 30 * time.Second, AntiAffinity: "x", Seed: 9}
	sp := SharePodFor(j)
	if sp.Spec.GPURequest != 0.5 || sp.Spec.GPULimit != 0.6 || sp.Spec.AntiAffinity != "x" {
		t.Fatalf("sharePod spec = %+v", sp.Spec)
	}
	if sp.Spec.Pod.Containers[0].Env[EnvRate] == "" {
		t.Fatal("rate env missing")
	}
	high := SharePodFor(Job{Name: "h", Demand: 0.95, Duration: time.Second})
	if high.Spec.GPULimit != 1 {
		t.Fatalf("limit %v, want clamped to 1", high.Spec.GPULimit)
	}
}

// Submit creates each object at its arrival until one is refused: the
// duplicate comes back as the wrapped already-exists error, nothing after it
// is asked for or created, and the proc finishes rather than sleeping on to
// the next arrival. An error another proc stored first stops it before its
// first create.
func TestSubmitStopsAtFirstError(t *testing.T) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	names := []string{"a", "b", "a", "c"}
	asked := 0
	var err error
	Submit(env, srv, len(names), func(i int) (time.Duration, api.Object) {
		asked++
		return time.Duration(i) * time.Second, &api.Pod{ObjectMeta: api.ObjectMeta{Name: names[i]}}
	}, &err)
	env.Run()
	if err == nil || !apiserver.IsExists(err) || !strings.HasPrefix(err.Error(), "submit a: ") {
		t.Fatalf("err = %v, want the wrapped already-exists error for a", err)
	}
	var got []string
	for _, pod := range apiserver.Pods(srv).List() {
		got = append(got, fmt.Sprintf("%s@%v", pod.Name, pod.CreationTime))
	}
	if want := "[a@0s b@1s]"; fmt.Sprint(got) != want {
		t.Fatalf("created %v, want %s", got, want)
	}
	if asked != 3 || env.Live() != 0 || env.Now() != 2*time.Second {
		t.Fatalf("asked %d objects, %d procs live at %v; want 3, 0 at 2s", asked, env.Live(), env.Now())
	}

	other := errors.New("other proc failed")
	err = other
	Submit(env, srv, 1, func(int) (time.Duration, api.Object) {
		return 0, &api.Pod{ObjectMeta: api.ObjectMeta{Name: "d"}}
	}, &err)
	env.Run()
	if err != other || apiserver.Pods(srv).Count() != 2 {
		t.Fatalf("err = %v with %d pods, want the earlier error kept and nothing created", err, apiserver.Pods(srv).Count())
	}
}

// TestServeSourcesDroppedWithLastJob: serve jobs on one cluster hand their
// arrival RNGs to each other, a deleted job's included, and the cluster's
// free list is gone once its last serve job exits. The probe records each
// change of (free sources, running serve jobs): a exits and returns its
// source, c starts and takes it, b is deleted and its killed container
// returns its own, and c, the last, drops the list.
func TestServeSourcesDroppedWithLastJob(t *testing.T) {
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	src := registerImages(c)
	serve := func(name, duration string) *api.Pod {
		return &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: name},
			Spec: api.PodSpec{Containers: []api.Container{{
				Name: "c", Image: ServeImage,
				Env:      map[string]string{EnvRate: "10", EnvDuration: duration, EnvSeed: name},
				Requests: api.ResourceList{api.ResourceGPU: 1},
			}}},
		}
	}
	env.Go("submit", func(p *sim.Proc) {
		c.Pods().Create(serve("1", "1"))
		c.Pods().Create(serve("2", "30"))
		p.Sleep(2500 * time.Millisecond)
		c.Pods().Create(serve("3", "4"))
		p.Sleep(1500 * time.Millisecond)
		c.Pods().Delete("2")
	})
	type state struct{ free, running int }
	seen := []state{{0, 0}}
	probe := env.Go("probe", func(p *sim.Proc) {
		for {
			if s := (state{len(src.free), src.running}); s != seen[len(seen)-1] {
				seen = append(seen, s)
			}
			p.Sleep(10 * time.Millisecond)
		}
	})
	env.RunUntil(time.Minute)
	probe.Kill(nil)
	env.Run()
	want := []state{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {0, 2}, {1, 1}, {0, 0}}
	if !slices.Equal(seen, want) {
		t.Fatalf("(free, running) went %v, want %v", seen, want)
	}
	if src.free != nil {
		t.Fatal("the free list outlived the cluster's last serve job")
	}
	for _, name := range []string{"1", "3"} {
		if pod, _ := c.Pods().Get(name); pod.Status.Phase != api.PodSucceeded {
			t.Errorf("pod %s ended %s (%s)", name, pod.Status.Phase, pod.Status.Message)
		}
	}
}
