package schedfw_test

import (
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/core/schedfw/plugins"
	"kubeshare/internal/kube"
	"kubeshare/internal/sim"
)

// BigJobHeadroom is the README's "writing a scheduler plugin" example: a
// filter that vetoes devices whose residual utilization would drop below
// the floor, so small jobs pack elsewhere and large jobs keep headroom.
// This test keeps the documented code honest.
type BigJobHeadroom struct{ Floor float64 }

func (BigJobHeadroom) Name() string { return "big-job-headroom" }

func (p BigJobHeadroom) Filter(u *fwk.Unit, d *core.DeviceState) bool {
	return u.Req.Util >= p.Floor || core.Residual(d)-u.Req.Util >= p.Floor
}

func TestReadmePluginExample(t *testing.T) {
	s := newStack(t, 1, 4, func(c *kube.Cluster) (*core.KubeShare, error) {
		return schedfw.Install(c, core.Config{},
			schedfw.WithPlugins(append([]fwk.Plugin{BigJobHeadroom{Floor: 0.5}},
				plugins.Default()...)...),
			schedfw.WithBatchSize(64))
	})
	// Two 0.3 jobs: the default best-fit would co-locate them, but the
	// headroom filter forces the second onto a fresh device (placing it on
	// the first would leave 0.4 < 0.5 residual).
	names := []string{"small-0", "small-1"}
	for _, name := range names {
		if _, err := core.SharePods(s.c.API).Create(trainPod(name, 0.3, 0.2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.env.Run()
	got := collect(t, s, names)
	for _, n := range names {
		if got[n].phase != core.SharePodSucceeded {
			t.Fatalf("%s: phase %q, want Succeeded", n, got[n].phase)
		}
	}
	if got["small-0"].gpuID == got["small-1"].gpuID {
		t.Fatalf("headroom filter ignored: both jobs on %s", got["small-0"].gpuID)
	}
	if err := s.ks.Sched.VerifySnapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestReadmePluginExampleMemoIsByIdentity is the README's reason the
// driver's per-cycle memo matches requests by identity and never by
// dominance: with BigJobHeadroom in the set, one device with 0.7 left
// refuses a 0.3 request (0.4 would remain, under the 0.5 floor) and accepts
// a 0.6 one (big jobs pass the filter unconditionally) — in the same cycle,
// younger unit after older. A driver reasoning "0.3 found no capacity, so
// 0.6 cannot either" would strand the big job.
func TestReadmePluginExampleMemoIsByIdentity(t *testing.T) {
	s := newStack(t, 1, 1, func(c *kube.Cluster) (*core.KubeShare, error) {
		return schedfw.Install(c, core.Config{},
			schedfw.WithPlugins(append([]fwk.Plugin{BigJobHeadroom{Floor: 0.5}},
				plugins.Default()...)...),
			schedfw.WithBatchSize(64))
	})
	create := func(name string, req float64, steps int) {
		if _, err := core.SharePods(s.c.API).Create(trainPod(name, req, 0.2, steps)); err != nil {
			t.Fatal(err)
		}
	}
	create("tenant", 0.3, 400) // holds the only GPU at 0.7 residual for ~4 s
	s.env.Go("submit", func(p *sim.Proc) {
		p.Sleep(time.Second)
		create("small", 0.3, 1)
		create("big", 0.6, 1)
	})
	s.env.Run()
	small, big, tenant := s.get(t, "small"), s.get(t, "big"), s.get(t, "tenant")
	for _, sp := range []*core.SharePod{small, big, tenant} {
		if sp.Status.Phase != core.SharePodSucceeded {
			t.Fatalf("%s: phase %q (%s), want Succeeded", sp.Name, sp.Status.Phase, sp.Status.Message)
		}
	}
	if big.Status.ScheduledTime >= tenant.Status.FinishTime {
		t.Errorf("big scheduled at %v, only after the tenant finished (%v): skipped on small's evidence",
			big.Status.ScheduledTime, tenant.Status.FinishTime)
	}
	if small.Status.ScheduledTime < tenant.Status.FinishTime {
		t.Errorf("small scheduled at %v beside the tenant (finished %v): the headroom filter did not hold",
			small.Status.ScheduledTime, tenant.Status.FinishTime)
	}
}
