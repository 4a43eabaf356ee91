// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment from
// internal/experiments (at a scale reduced from the paper's 8×4-GPU
// testbed to keep iterations fast — cmd/kubeshare-sim runs full scale) and
// reports the figure's headline quantity through b.ReportMetric, so
// `go test -bench=.` reproduces the paper's qualitative results table by
// table. BenchmarkFig11SchedulingTime measures real CPU time of the actual
// Algorithm 1 implementation, which is what Figure 11 is about.
package kubeshare

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/experiments"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// cellF parses a table cell as float64.
func cellF(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// BenchmarkTable1Fragmentation regenerates the Table 1 / Figure 3
// comparison: over-commitment and active-GPU counts under the
// scheduler-extender baseline vs KubeShare.
func BenchmarkTable1Fragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table1(experiments.Table1Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][3]), "extender-active-gpus")
			b.ReportMetric(cellF(b, t.Rows[0][4]), "kubeshare-active-gpus")
			b.ReportMetric(cellF(b, t.Rows[4][3]), "extender-overcommitted")
		}
	}
}

// BenchmarkFig5InferenceUsage regenerates Figure 5: inference GPU usage
// under increasing client request rates.
func BenchmarkFig5InferenceUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig5(experiments.Fig5Config{
			Rates: []float64{4, 12, 24}, Duration: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[1][1]), "util-at-12rps")
		}
	}
}

// BenchmarkFig6Isolation regenerates Figure 6: the three-job isolation
// timeline on one shared GPU.
func BenchmarkFig6Isolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Fig6Config{Stagger: 100 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, res.Table.Rows[0][2]), "jobA-solo-usage")
			b.ReportMetric(cellF(b, res.Table.Rows[1][2]), "jobA-shared-usage")
		}
	}
}

// BenchmarkFig7QuotaOverhead regenerates Figure 7: normalized training
// throughput across token quotas.
func BenchmarkFig7QuotaOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig7(experiments.Fig7Config{
			Quotas: []time.Duration{30 * time.Millisecond, 100 * time.Millisecond},
			Steps:  2000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][2]), "normalized-tput-30ms")
			b.ReportMetric(cellF(b, t.Rows[1][2]), "normalized-tput-100ms")
		}
	}
}

// fig8Scale is the reduced-scale configuration shared by the Fig 8 benches.
var fig8Scale = experiments.Fig8Config{
	Jobs: 60, Nodes: 2, GPUsPerNode: 4, JobDuration: 30 * time.Second,
}

// BenchmarkFig8aJobFrequency regenerates Figure 8a: throughput vs job
// frequency for Kubernetes and KubeShare.
func BenchmarkFig8aJobFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8a(fig8Scale, []float64{1, 6})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[1][2]), "k8s-jobs-per-min")
			b.ReportMetric(cellF(b, t.Rows[1][3]), "kubeshare-jobs-per-min")
			b.ReportMetric(cellF(b, t.Rows[1][4]), "saturated-speedup")
		}
	}
}

// BenchmarkFig8bMeanDemand regenerates Figure 8b: throughput vs mean GPU
// demand.
func BenchmarkFig8bMeanDemand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8b(fig8Scale, []float64{0.2, 0.6})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][3]), "speedup-at-20pct")
			b.ReportMetric(cellF(b, t.Rows[1][3]), "speedup-at-60pct")
		}
	}
}

// BenchmarkFig8cDemandVariance regenerates Figure 8c: throughput vs demand
// variance (flat).
func BenchmarkFig8cDemandVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8c(fig8Scale, []float64{0.5, 4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][2]), "kubeshare-at-var0.5")
			b.ReportMetric(cellF(b, t.Rows[1][2]), "kubeshare-at-var4")
		}
	}
}

// BenchmarkFig9Utilization regenerates Figure 9: utilization and active
// GPUs over time for both systems.
func BenchmarkFig9Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Fig9Config{
			Fig8Config: fig8Scale,
			FreqFactor: 2.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Makespan[experiments.Kubernetes].Seconds(), "k8s-makespan-s")
			b.ReportMetric(res.Makespan[experiments.KubeShare].Seconds(), "kubeshare-makespan-s")
		}
	}
}

// BenchmarkFig9Obs runs the KubeShare arm of the Figure 9 workload with the
// observability spine on and off — the instrumentation-overhead check. Both
// sub-benchmarks run identical simulations; the only difference is whether
// every layer's spans, events and metrics are being recorded. The recorded
// overhead budget is ≤5% wall-clock (see the obs_overhead record in BENCH.json).
func BenchmarkFig9Obs(b *testing.B) {
	cfg := experiments.Fig9Config{Fig8Config: fig8Scale, FreqFactor: 2.5}
	for _, arm := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig9Sharing(cfg, arm.disable)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("workload completed no jobs")
				}
			}
		})
	}
}

// BenchmarkFig10PodCreation regenerates Figure 10: pod creation latency for
// native pods, sharePods without vGPU creation, and with vGPU creation.
func BenchmarkFig10PodCreation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig10(experiments.Fig10Config{
			Concurrency: []int{1, 8}, Nodes: 2, GPUsPerNode: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][4]), "no-vgpu-overhead-x")
			b.ReportMetric(cellF(b, t.Rows[0][5]), "with-vgpu-overhead-x")
		}
	}
}

// BenchmarkFig11SchedulingTime measures one full KubeShare-Sched decision
// against real state with N existing SharePods — the real-CPU-time figure.
// The paper's claim: linear in N, ≪400ms at 100. Both columns time the
// paper's linear Algorithm 1 as written (core.Schedule); they differ in where
// its pool comes from. "full-rebuild" relists: core.BuildPool lists everything
// and re-places every tenant, the paper's per-decision cost. "incremental"
// copies the pool out of the watch-fed snapshot (Snapshot.NewPool), so it
// pays for the copy and the scan but not the relist. Neither is the
// production path, by design: schedfw decides on the snapshot's own pool
// without copying it and searches its residual order instead of scanning
// (Figures 15 and 16 and the repo benchmark's sched_churn time that).
func BenchmarkFig11SchedulingTime(b *testing.B) {
	counts := []int{10, 25, 50, 100, 200, 400, 1000, 10000}
	b.Run("full-rebuild", func(b *testing.B) {
		for _, n := range counts {
			b.Run("sharepods="+strconv.Itoa(n), func(b *testing.B) {
				srv, err := experiments.PopulateSchedulingState(n)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					experiments.ScheduleOnce(srv)
				}
			})
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for _, n := range counts {
			b.Run("sharepods="+strconv.Itoa(n), func(b *testing.B) {
				srv, err := experiments.PopulateSchedulingState(n)
				if err != nil {
					b.Fatal(err)
				}
				snap := experiments.PopulateSnapshot(srv)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					experiments.ScheduleOnceIncremental(snap)
				}
			})
		}
	})
}

// BenchmarkFig12Interference regenerates Figure 12: per-combination
// slowdowns on a shared GPU.
func BenchmarkFig12Interference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig12(experiments.Fig12Config{Steps: 2000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report := map[string]float64{}
			for _, row := range t.Rows {
				v := cellF(b, row[2])
				if v > report[row[0]] {
					report[row[0]] = v
				}
			}
			b.ReportMetric(report["A+A"], "slowdown-A+A")
			b.ReportMetric(report["B+B"], "slowdown-B+B")
			b.ReportMetric(report["A+B"], "slowdown-A+B")
		}
	}
}

// BenchmarkFig13AntiAffinity regenerates Figure 13: throughput of the three
// settings across the Job-A ratio.
func BenchmarkFig13AntiAffinity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig13(experiments.Fig13Config{
			Jobs: 24, Steps: 800, Nodes: 1, GPUsPerNode: 4, Ratios: []float64{0, 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][2]), "ratio0-kubeshare")
			b.ReportMetric(cellF(b, t.Rows[0][1]), "ratio0-kubernetes")
			b.ReportMetric(cellF(b, t.Rows[1][3]), "ratio1-antiaffinity")
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md §4) ---

// BenchmarkAblationPlacement compares Algorithm 1's paper placement policy
// (best fit + worst fit) against alternatives on a synthetic request mix,
// reporting how many devices each policy ends up using.
func BenchmarkAblationPlacement(b *testing.B) {
	policies := map[string]core.PlacementPolicy{
		"paper-best+worst": core.PaperPolicy,
		"best+best":        core.BestBest,
		"worst+worst":      core.WorstWorst,
		"first-fit":        core.FirstFit,
	}
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			devices := 0.0
			for i := 0; i < b.N; i++ {
				pool := &core.Pool{
					FreePhysical: map[string]int{"n0": 16, "n1": 16},
					NewID:        newIDGen(),
				}
				// A mix of plain, affinity and anti-affinity requests.
				for j := 0; j < 64; j++ {
					r := core.Request{Util: []float64{0.5, 0.3, 0.2, 0.6}[j%4], Mem: 0.2}
					switch j % 5 {
					case 3:
						r.Aff = []string{"g1", "g2"}[j%2]
					case 4:
						r.Anti = "spread"
					}
					core.ScheduleWithPolicy(r, pool, policy)
				}
				devices = float64(len(pool.Devices))
			}
			b.ReportMetric(devices, "devices-used")
		})
	}
}

// BenchmarkAblationQuota sweeps the token quota and reports the effective
// training throughput ratio (the Figure 7 knob as an ablation).
func BenchmarkAblationQuota(b *testing.B) {
	for _, quota := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond} {
		b.Run(quota.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig7(experiments.Fig7Config{
					Quotas: []time.Duration{quota}, Steps: 1000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(cellF(b, t.Rows[0][2]), "normalized-tput")
				}
			}
		})
	}
}

// BenchmarkAblationPoolPolicy compares on-demand vs reservation vGPU pools
// on repeat-submission latency (the §4.4 trade-off).
func BenchmarkAblationPoolPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig10(experiments.Fig10Config{
			Concurrency: []int{4}, Nodes: 1, GPUsPerNode: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][2]), "reservation-create-s")
			b.ReportMetric(cellF(b, t.Rows[0][3]), "ondemand-create-s")
		}
	}
}

// BenchmarkAblationMemOvercommit contrasts fitting working sets with
// over-committed swapped ones (the §6 trade-off): same jobs, the swap
// traffic stretches the makespan.
func BenchmarkAblationMemOvercommit(b *testing.B) {
	run := func(b *testing.B, mem float64, factor float64) float64 {
		opts := []Option{WithGPUsPerNode(1)}
		if factor > 1 {
			opts = append(opts, WithMemOvercommit(factor))
		}
		s, err := New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		s.RegisterImage("burn", func(ctx *ContainerCtx) error {
			if _, err := ctx.CUDA.MemAlloc(ctx.Proc, int64(mem*0.95*float64(16<<30))); err != nil {
				return err
			}
			for i := 0; i < 100; i++ {
				if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		})
		s.Go("submit", func(p *Proc) {
			for _, n := range []string{"a", "b"} {
				s.CreateSharePod(&SharePod{
					ObjectMeta: ObjectMeta{Name: n},
					Spec: SharePodSpec{
						GPURequest: 0.5, GPULimit: 1, GPUMem: mem,
						Pod: PodSpec{Containers: []Container{{Name: "c", Image: "burn"}}},
					},
				})
			}
		})
		s.Run()
		return s.Now().Seconds()
	}
	b.Run("fitting-0.4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(run(b, 0.4, 1), "makespan-s")
		}
	})
	b.Run("overcommit-0.7x1.5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(run(b, 0.7, 1.5), "makespan-s")
		}
	})
}

// BenchmarkAblationResidualPolicy contrasts the paper's lowest-usage-first
// residual distribution with plain FIFO: one big-kernel tenant against two
// small-kernel ones, reporting the big tenant's share (≈0.33 fair vs ≈0.67
// under FIFO turn rotation).
func BenchmarkAblationResidualPolicy(b *testing.B) {
	run := func(policy sharing.ResidualPolicy) float64 {
		env := sim.NewEnv()
		dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n"})
		backend := devlib.NewBackend(env, devlib.Config{Residual: policy})
		strat, err := backend.StrategyFor(dev.UUID(), sharing.ModeToken)
		if err != nil {
			b.Fatal(err)
		}
		launch := func(id string, kernel time.Duration) {
			f, err := devlib.NewFrontendWith(cuda.Open(dev, id), strat, id,
				devlib.Share{Request: 0.05, Limit: 1, Memory: 0.2}, backend.Config())
			if err != nil {
				b.Fatal(err)
			}
			env.Go(id, func(p *sim.Proc) {
				for !p.Killed() {
					if err := f.LaunchKernel(p, kernel); err != nil {
						return
					}
				}
			})
		}
		launch("big", 20*time.Millisecond)
		launch("small1", 5*time.Millisecond)
		launch("small2", 5*time.Millisecond)
		env.RunUntil(20 * time.Second)
		return strat.UsageRate("big")
	}
	for i := 0; i < b.N; i++ {
		if i == 0 {
			b.ReportMetric(run(sharing.LowestUsageFirst), "big-share-lowest-usage")
			b.ReportMetric(run(sharing.FIFOResidual), "big-share-fifo")
		} else {
			run(sharing.LowestUsageFirst)
		}
	}
}

func newIDGen() func() string {
	n := 0
	return func() string {
		n++
		return "d" + strconv.Itoa(n)
	}
}

// BenchmarkFig15SchedulerThroughput regenerates Figure 15: sustained
// scheduling decisions per second of the plugin-phase framework at depth,
// comparing the single-decision cycle against batched and batched+gang
// driving. The headline metric is the batched/single virtual-throughput
// ratio (the cycle-latency amortization; acceptance bar 3x at the 10k
// point, reached by ~60x in practice). The quick variant is the check.sh
// smoke; the full variant is the BENCH.json point.
func BenchmarkFig15SchedulerThroughput(b *testing.B) {
	for _, scale := range []struct {
		name  string
		count int
	}{{"quick", 1000}, {"full", 10000}} {
		b.Run(scale.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig15(experiments.Fig15Config{Counts: []int{scale.count}})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					single := cellF(b, t.Rows[0][2])
					batched := cellF(b, t.Rows[1][2])
					gang := cellF(b, t.Rows[2][2])
					b.ReportMetric(single, "single-dps")
					b.ReportMetric(batched, "batched-dps")
					b.ReportMetric(gang, "gang-dps")
					b.ReportMetric(batched/single, "batched-speedup")
				}
			}
		})
	}
}

// BenchmarkFig16ScaleSweep regenerates Figure 16: wall-clock time of the
// scheduler hot path (batched cycle over the store) as the sharePod
// count climbs 1k → 10k → 100k. Per order of magnitude it reports the wall
// time and the scheduler's decisions per sharePod — the requeue-storm
// witness: ~1 when unschedulable units are parked, growing with the backlog
// when every pending unit is re-decided every cycle. The quick variant is
// the check.sh smoke.
func BenchmarkFig16ScaleSweep(b *testing.B) {
	for _, scale := range []struct {
		name string
		cfg  experiments.Fig16Config
	}{
		{"quick", experiments.Fig16Config{Sizes: []int{500}, Nodes: 16}},
		{"full", experiments.Fig16Config{}},
	} {
		b.Run(scale.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig16(scale.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i != 0 {
					continue
				}
				// Columns: sharepods, wall_ms, virtual_makespan_s, decisions,
				// decisions_per_sharepod, conflicts, placements_hash.
				for _, row := range t.Rows {
					b.ReportMetric(cellF(b, row[1]), row[0]+"-wall-ms")
					b.ReportMetric(cellF(b, row[4]), row[0]+"-decisions-per-sharepod")
				}
			}
		})
	}
}

// BenchmarkFig17RecoverySweep regenerates Figure 17: the durable control
// plane's recovery cost under apiserver crash/restart chaos, sweeping
// restart intensity against checkpoint cadence. Per restart-mean it reports
// the replayed-record count and modeled unavailability of the tightest
// checkpoint cadence versus checkpoints disabled (every restart replays the
// whole WAL) — the trade the checkpoint interval buys. Quiescence invariants
// and jobs-all-succeed are enforced inside Fig17 per cell, so a passing run
// is also the warm-recovery witness. The quick variant is the check.sh smoke.
func BenchmarkFig17RecoverySweep(b *testing.B) {
	for _, scale := range []struct {
		name string
		cfg  experiments.Fig17Config
	}{
		{"quick", experiments.Fig17Config{Nodes: 2, Jobs: 12, JobDuration: 10 * time.Second,
			RestartMeans:        []time.Duration{10 * time.Second},
			CheckpointIntervals: []time.Duration{5 * time.Second, -1}}},
		{"full", experiments.Fig17Config{}},
	} {
		b.Run(scale.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig17(scale.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i != 0 {
					continue
				}
				// Rows group by restart mean, one row per checkpoint interval;
				// contrast the first (tightest cadence) and last (disabled)
				// rows of each group.
				per := len(scale.cfg.CheckpointIntervals)
				if per == 0 {
					per = 3 // withDefaults sweep
				}
				for r := 0; r+per-1 < len(t.Rows); r += per {
					mean := t.Rows[r][0]
					ckpt, never := t.Rows[r], t.Rows[r+per-1]
					b.ReportMetric(cellF(b, ckpt[4]), "mean"+mean+"s-ckpt-replayed")
					b.ReportMetric(cellF(b, never[4]), "mean"+mean+"s-nockpt-replayed")
					b.ReportMetric(cellF(b, ckpt[5]), "mean"+mean+"s-ckpt-outage-ms")
					b.ReportMetric(cellF(b, never[5]), "mean"+mean+"s-nockpt-outage-ms")
				}
			}
		})
	}
}

// BenchmarkFig18StrategyComparison regenerates Figure 18: the same seeded
// serving workload replayed under each sharing strategy (token time-slicing,
// MPS overlap, replica time-slicing) on a small-kernel and a large-kernel
// mix, plus the memory-quantity mode's admission/placement witness. The
// headline contrast is the small-kernel mix, where the token path's
// per-grant handoff is pure overhead and the overlap strategies pull ahead;
// on large kernels the gap amortizes away. The quick variant is the
// check.sh smoke.
func BenchmarkFig18StrategyComparison(b *testing.B) {
	for _, scale := range []struct {
		name string
		cfg  experiments.Fig18Config
	}{
		{"quick", experiments.Fig18Config{Nodes: 1, GPUsPerNode: 4, Jobs: 16,
			JobDuration: 10 * time.Second}},
		{"full", experiments.Fig18Config{}},
	} {
		b.Run(scale.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig18(scale.cfg)
				if err != nil {
					b.Fatal(err)
				}
				mb, err := experiments.Fig18MemBytes(scale.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i != 0 {
					continue
				}
				// Rows come in mix-major order: small-kernel then
				// large-kernel, each token/mps/replica.
				for _, row := range t.Rows {
					mix := "small"
					if row[1] == "large-kernel" {
						mix = "large"
					}
					b.ReportMetric(cellF(b, row[4]), mix+"-"+row[0]+"-tput")
					b.ReportMetric(cellF(b, row[5]), mix+"-"+row[0]+"-stretch")
				}
				b.ReportMetric(cellF(b, t.Rows[1][4])/cellF(b, t.Rows[0][4]),
					"mps-over-token-small")
				b.ReportMetric(cellF(b, mb.Rows[0][4]), "membytes-rejected-typed")
				b.ReportMetric(cellF(b, mb.Rows[1][2]), "membytes-completed")
				b.ReportMetric(cellF(b, mb.Rows[1][3]), "membytes-failed")
			}
		})
	}
}

// BenchmarkFig19Attribution regenerates Figure 19: the Fig 18 strategy ×
// kernel-mix grid replayed with critical-path attribution on, reporting
// each arm's phase-level latency budget — where the submit-to-launch
// interval actually goes per strategy. The reported metrics are
// virtual-clock means over completed chains (token-wait and end-to-end
// per arm, plus the open-chain count, which is zero by construction on
// these workloads). The quick variant is the check.sh smoke.
func BenchmarkFig19Attribution(b *testing.B) {
	for _, scale := range []struct {
		name string
		cfg  experiments.Fig18Config
	}{
		{"quick", experiments.Fig18Config{
			Nodes: 1, GPUsPerNode: 4, Jobs: 16, JobDuration: 10 * time.Second}},
		{"full", experiments.Fig18Config{}},
	} {
		b.Run(scale.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig19(scale.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i != 0 {
					continue
				}
				open := 0.0
				// Rows come in mix-major order: small-kernel then
				// large-kernel, each token/mps/replica. Columns: strategy,
				// mix, chains, open, 8 phase_ms columns, e2e_ms.
				for _, row := range t.Rows {
					mix := "small"
					if row[1] == "large-kernel" {
						mix = "large"
					}
					open += cellF(b, row[3])
					b.ReportMetric(cellF(b, row[10]), mix+"-"+row[0]+"-tokenwait-ms")
					b.ReportMetric(cellF(b, row[12]), mix+"-"+row[0]+"-e2e-ms")
				}
				b.ReportMetric(open, "open-chains")
			}
		})
	}
}

// drainEvery is timeWrites' drain period and the history cap its callers set.
const drainEvery = 256

// timeWrites times b.N calls of write after a warm-up, draining the watch
// queues outside the timer every drainEvery writes, so rings and history sit
// at their steady capacity while it runs and allocs/op is exact.
func timeWrites(b *testing.B, queues []*sim.Queue[store.Event], write func() error) {
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := write(); err != nil {
				b.Fatal(err)
			}
			if (i+1)%drainEvery == 0 || i == n-1 {
				b.StopTimer()
				for _, q := range queues {
					for q.Len() > 0 {
						q.TryGet()
					}
				}
				b.StartTimer()
			}
		}
	}
	run(8 * drainEvery) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkStoreUpdateFanout measures what one Pod status write costs the
// store with 1, 8 and 32 live watchers on the kind (a full-stack cluster has
// twelve). The store publishes one immutable snapshot per revision and
// every watcher queue carries that pointer, so allocs/op must be the same
// at every width — tools/benchgate holds 8 and 32 equal to 1, and 1 at one
// allocation: the new revision's struct, which shares the stored spec and
// metadata and leaves the label index alone.
func BenchmarkStoreUpdateFanout(b *testing.B) {
	for _, watchers := range []int{1, 8, 32} {
		b.Run("watchers="+strconv.Itoa(watchers), func(b *testing.B) {
			st := store.New(sim.NewEnv())
			st.SetHistoryCap(drainEvery)
			var queues []*sim.Queue[store.Event]
			for i := 0; i < watchers; i++ {
				queues = append(queues, st.Watch("Pod", false))
			}
			cur, err := st.Create(&api.Pod{
				ObjectMeta: api.ObjectMeta{Name: "p", Labels: map[string]string{"app": "bench"}},
				Spec:       api.PodSpec{NodeName: "node-0", Containers: []api.Container{{Name: "main", Image: "train"}}},
			})
			if err != nil {
				b.Fatal(err)
			}
			timeWrites(b, queues, func() error {
				cur, err = st.UpdateStatus(cur)
				return err
			})
		})
	}
}

// BenchmarkClientMutateStatus measures one Client.MutateStatus — the
// read-modify-write every kubelet phase report and DevMgr status write goes
// through — on a Pod whose container carries 0 or 64 env vars, with three
// live watchers. The closure's object and the published revision both share
// the stored spec, so the cost of a status write must not depend on the
// spec: tools/benchgate holds env=64's allocs/op equal to env=0's.
func BenchmarkClientMutateStatus(b *testing.B) {
	for _, envVars := range []int{0, 64} {
		b.Run("env="+strconv.Itoa(envVars), func(b *testing.B) {
			srv := apiserver.New(sim.NewEnv())
			srv.SetWatchHistoryCap(drainEvery)
			pods := apiserver.Pods(srv)
			var queues []*sim.Queue[store.Event]
			for i := 0; i < 3; i++ {
				queues = append(queues, pods.Watch(false))
			}
			env := make(map[string]string, envVars)
			for i := 0; i < envVars; i++ {
				env[fmt.Sprintf("VAR_%02d", i)] = "value"
			}
			if _, err := pods.Create(&api.Pod{
				ObjectMeta: api.ObjectMeta{Name: "p", Labels: map[string]string{"app": "bench"}},
				Spec:       api.PodSpec{NodeName: "node-0", Containers: []api.Container{{Name: "main", Image: "train", Env: env}}},
			}); err != nil {
				b.Fatal(err)
			}
			n := 0
			timeWrites(b, queues, func() error {
				n++
				_, err := pods.MutateStatus("p", func(p *api.Pod) error {
					p.Status.StartTime = time.Duration(n)
					return nil
				})
				return err
			})
		})
	}
}
