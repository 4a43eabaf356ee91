// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment from
// internal/experiments — its quick run, and its full run too where the
// benchmark has quick and full variants — and reports the figure's headline
// quantity through b.ReportMetric, so `go test -bench=.` reproduces the
// paper's qualitative results table by table. BenchmarkFig11SchedulingTime
// measures real CPU time of one KubeShare-Sched decision, the one the
// running scheduler makes, which is what Figure 11 is about.
package kubeshare

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/coretest"
	"kubeshare/internal/experiments"
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
		t, err := experiments.Table1()
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
		t, err := experiments.Fig5(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[3][1]), "util-at-12rps") // rates 2, 4, 8, 12, …
		}
	}
}

// BenchmarkFig6Isolation regenerates Figure 6: the three-job isolation
// timeline on one shared GPU.
func BenchmarkFig6Isolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Quick)
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
		t, err := experiments.Fig7(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][2]), "normalized-tput-30ms")
			b.ReportMetric(cellF(b, t.Rows[3][2]), "normalized-tput-100ms")
		}
	}
}

// BenchmarkFig8aJobFrequency regenerates Figure 8a: throughput vs job
// frequency for Kubernetes and KubeShare.
func BenchmarkFig8aJobFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8a(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			saturated := t.Rows[len(t.Rows)-1]
			b.ReportMetric(cellF(b, saturated[2]), "k8s-jobs-per-min")
			b.ReportMetric(cellF(b, saturated[3]), "kubeshare-jobs-per-min")
			b.ReportMetric(cellF(b, saturated[4]), "saturated-speedup")
		}
	}
}

// BenchmarkFig8bMeanDemand regenerates Figure 8b: throughput vs mean GPU
// demand.
func BenchmarkFig8bMeanDemand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8b(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[1][3]), "speedup-at-20pct")
			b.ReportMetric(cellF(b, t.Rows[5][3]), "speedup-at-60pct")
		}
	}
}

// BenchmarkFig8cDemandVariance regenerates Figure 8c: throughput vs demand
// variance (flat).
func BenchmarkFig8cDemandVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8c(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][2]), "kubeshare-at-var0.5")
			b.ReportMetric(cellF(b, t.Rows[4][2]), "kubeshare-at-var4")
		}
	}
}

// BenchmarkFig9Utilization regenerates Figure 9: utilization and active
// GPUs over time for both systems.
func BenchmarkFig9Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Makespan[experiments.Kubernetes].Seconds(), "k8s-makespan-s")
			b.ReportMetric(res.Makespan[experiments.KubeShare].Seconds(), "kubeshare-makespan-s")
		}
	}
}

// BenchmarkFig9Obs runs the KubeShare arm of the quick Figure 9 run with the
// observability spine on and off — the instrumentation-overhead check. Both
// sub-benchmarks run identical simulations; the only difference is whether
// every layer's spans, events and metrics are being recorded. The overhead
// is advisory: EXPERIMENTS.md gives its measured median over alternating runs.
func BenchmarkFig9Obs(b *testing.B) {
	for _, arm := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig9Sharing(arm.disable)
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
		t, err := experiments.Fig10(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][4]), "no-vgpu-overhead-x")
			b.ReportMetric(cellF(b, t.Rows[0][5]), "with-vgpu-overhead-x")
		}
	}
}

// BenchmarkFig11SchedulingTime measures one KubeShare-Sched decision against
// real state with N existing SharePods — the real-CPU-time figure, timing
// the unit Fig 11 times (experiments.NewSchedulingDecision: core.Decide on
// the snapshot's borrowed pool, committed in a transaction rolled back
// after). The paper's claim: linear in N, ≪400ms at
// 100.
func BenchmarkFig11SchedulingTime(b *testing.B) {
	for _, n := range []int{10, 25, 50, 100, 200, 400, 1000, 10000} {
		b.Run("sharepods="+strconv.Itoa(n), func(b *testing.B) {
			decide, err := experiments.NewSchedulingDecision(n)
			if err != nil {
				b.Fatal(err)
			}
			decide() // the first borrow sorts the residual order, as a running scheduler has
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decide()
			}
		})
	}
}

// BenchmarkFig12Interference regenerates Figure 12: per-combination
// slowdowns on a shared GPU.
func BenchmarkFig12Interference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig12(experiments.Quick)
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
		t, err := experiments.Fig13(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cellF(b, t.Rows[0][2]), "ratio0-kubeshare")
			b.ReportMetric(cellF(b, t.Rows[0][1]), "ratio0-kubernetes")
			b.ReportMetric(cellF(b, t.Rows[4][3]), "ratio1-antiaffinity")
		}
	}
}

// --- Ablation bench (Algorithm 1's placement step, DESIGN.md §5) ---

// BenchmarkAblationPlacement compares Algorithm 1's paper placement policy
// (best fit + worst fit) against alternatives on a synthetic request mix,
// reporting how many devices each policy ends up using.
func BenchmarkAblationPlacement(b *testing.B) {
	policies := map[string]coretest.PlacementPolicy{
		"paper-best+worst": coretest.PaperPolicy,
		"best+best":        coretest.BestBest,
		"worst+worst":      coretest.WorstWorst,
		"first-fit":        coretest.FirstFit,
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
					coretest.ScheduleWithPolicy(r, pool, policy)
				}
				devices = float64(len(pool.Devices))
			}
			b.ReportMetric(devices, "devices-used")
		})
	}
}

func newIDGen() func() string {
	n := 0
	return func() string {
		n++
		return "d" + strconv.Itoa(n)
	}
}

// scales are the sub-benchmarks of an experiment benchmarked at both of
// its runs.
var scales = []experiments.Scale{experiments.Quick, experiments.Full}

// BenchmarkFig15SchedulerThroughput regenerates Figure 15: sustained
// scheduling decisions per second of the plugin-phase framework at depth,
// comparing the single-decision cycle against batched and batched+gang
// driving. The headline metric is the batched/single virtual-throughput
// ratio at the deepest queue (the cycle-latency amortization; acceptance
// bar 3x at the full run's 10k point, reached by ~60x in practice). The
// quick variant is the check.sh smoke, and TestFig15ThroughputPinned holds
// its numbers exactly.
func BenchmarkFig15SchedulerThroughput(b *testing.B) {
	for _, s := range scales {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig15(s)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					// The deepest queue's three rows come last.
					deep := t.Rows[len(t.Rows)-3:]
					single := cellF(b, deep[0][2])
					batched := cellF(b, deep[1][2])
					gang := cellF(b, deep[2][2])
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
// count climbs 1k → 10k → 100k with the pending backlog held within one
// wave. Per order of magnitude it reports the wall time and the scheduler's
// decisions per sharePod (1 at every size: no unit waits for capacity; an
// overloaded queue's cost is Figure 15's and sched_churn's). The quick
// variant is the check.sh smoke.
func BenchmarkFig16ScaleSweep(b *testing.B) {
	for _, s := range scales {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig16(s)
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
	for _, s := range scales {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig17(s, 1)
				if err != nil {
					b.Fatal(err)
				}
				if i != 0 {
					continue
				}
				// Rows group by restart mean, one row per checkpoint interval;
				// contrast the first (tightest cadence) and last (disabled)
				// rows of each group.
				for r := 0; r < len(t.Rows); {
					mean, end := t.Rows[r][0], r+1
					for end < len(t.Rows) && t.Rows[end][0] == mean {
						end++
					}
					ckpt, never := t.Rows[r], t.Rows[end-1]
					r = end
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
	for _, s := range scales {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig18(s, 1)
				if err != nil {
					b.Fatal(err)
				}
				mb, err := experiments.Fig18MemBytes(s, 1)
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
	for _, s := range scales {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.Fig19(s, 1)
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

// drainEvery is the drain period of the write loops below and the history
// cap their callers set.
const drainEvery = 256

// drain empties the watch queues.
func drain(queues []*sim.Queue[store.Event]) {
	for _, q := range queues {
		for q.Len() > 0 {
			q.TryGet()
		}
	}
}

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
				drain(queues)
				b.StartTimer()
			}
		}
	}
	run(8 * drainEvery) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// writeAllocs is what one write allocates once warm, as a benchmark counts
// allocs/op (the mean over 4×drainEvery writes, truncated), with timeWrites'
// warm-up and drain period.
func writeAllocs(t *testing.T, queues []*sim.Queue[store.Event], write func() error) float64 {
	i := 0
	step := func() {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if i++; i%drainEvery == 0 {
			drain(queues)
		}
	}
	for i < 8*drainEvery {
		step()
	}
	return testing.AllocsPerRun(4*drainEvery, step)
}

// fanoutRig is one Pod status write to a store with the given number of
// live watchers on the kind (a full-stack cluster has twelve).
func fanoutRig(tb testing.TB, watchers int) ([]*sim.Queue[store.Event], func() error) {
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
		tb.Fatal(err)
	}
	return queues, func() error {
		cur, err = st.UpdateStatus(cur)
		return err
	}
}

// BenchmarkStoreUpdateFanout measures what one Pod status write costs the
// store with 1, 8 and 32 live watchers on the kind.
func BenchmarkStoreUpdateFanout(b *testing.B) {
	for _, watchers := range []int{1, 8, 32} {
		b.Run("watchers="+strconv.Itoa(watchers), func(b *testing.B) {
			queues, write := fanoutRig(b, watchers)
			timeWrites(b, queues, write)
		})
	}
}

// TestFanoutAllocsMustNotDependOnWatchers: the store publishes one
// immutable snapshot per revision and every watcher queue carries that
// pointer, so a status write allocates the same at every width — one, the
// new revision's struct, which shares the stored spec and metadata (it read
// 20 / 48 / 144 at 1 / 8 / 32 watchers while notify deep-copied per
// delivery, and 12 while a status write re-made the spec and a label
// index's posting set).
func TestFanoutAllocsMustNotDependOnWatchers(t *testing.T) {
	for _, watchers := range []int{1, 8, 32} {
		queues, write := fanoutRig(t, watchers)
		if got := writeAllocs(t, queues, write); got != 1 {
			t.Errorf("watchers=%d: %v allocations per status write, want 1", watchers, got)
		}
	}
}

// mutateRig is one write to a Pod whose container carries the given number
// of env vars, with three live watchers: a Client.MutateStatus
// (store.VerbStatus) — the read-modify-write every kubelet phase report and
// DevMgr status write goes through —, a Client.Mutate spec write
// (store.VerbSpec), or a Client.Bind (store.VerbBind), a node name and a
// status field in one write, as a placement makes. It also returns the pod
// as created.
func mutateRig(tb testing.TB, envVars int, verb store.Verb) ([]*sim.Queue[store.Event], func() error, *api.Pod) {
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
	created, err := pods.Create(&api.Pod{
		ObjectMeta: api.ObjectMeta{Name: "p", Labels: map[string]string{"app": "bench"}},
		Spec:       api.PodSpec{NodeName: "node-0", Containers: []api.Container{{Name: "main", Image: "train", Env: env}}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	switch verb {
	case store.VerbSpec:
		return queues, func() error {
			_, err := pods.Mutate("p", func(p *api.Pod) error {
				p.Spec.NodeName = "node-1"
				return nil
			})
			return err
		}, created
	case store.VerbBind:
		return queues, func() error {
			n++
			_, err := pods.Bind("p", func(p *api.Pod) error {
				p.Spec.NodeName = "node-1"
				p.Status.StartTime = time.Duration(n)
				return nil
			})
			return err
		}, created
	}
	return queues, func() error {
		n++
		_, err := pods.MutateStatus("p", func(p *api.Pod) error {
			p.Status.StartTime = time.Duration(n)
			return nil
		})
		return err
	}, created
}

// BenchmarkClientMutateStatus measures one Client.MutateStatus on a Pod
// with 0 or 64 env vars.
func BenchmarkClientMutateStatus(b *testing.B) {
	for _, envVars := range []int{0, 64} {
		b.Run("env="+strconv.Itoa(envVars), func(b *testing.B) {
			queues, write, _ := mutateRig(b, envVars, store.VerbStatus)
			timeWrites(b, queues, write)
		})
	}
}

// TestStatusWriteCostMustNotDependOnSpec: the closure's object shares the
// stored spec, and the store publishes that object itself, so a status write
// through Client.MutateStatus costs one allocation whether the pod carries 0
// or 64 env vars (19 / 28 while the spec was copied, 2 while the store
// copied the closure's object again).
func TestStatusWriteCostMustNotDependOnSpec(t *testing.T) {
	for _, envVars := range []int{0, 64} {
		queues, write, _ := mutateRig(t, envVars, store.VerbStatus)
		if got := writeAllocs(t, queues, write); got != 1 {
			t.Errorf("env=%d: %v allocations per MutateStatus, want 1", envVars, got)
		}
	}
}

// TestSpecWriteCopiesOnce: a spec write through Client.Mutate costs exactly
// one DeepCopyObject of the pod — the closure's private object, which the
// store publishes — at 0 and at 64 env vars (a second deep copy and a status
// struct more while the store copied it again).
func TestSpecWriteCopiesOnce(t *testing.T) {
	for _, c := range []struct{ envVars, want int }{{0, 5}, {64, 8}} {
		queues, write, created := mutateRig(t, c.envVars, store.VerbSpec)
		copyAllocs := testing.AllocsPerRun(100, func() { created.DeepCopyObject() })
		if got := writeAllocs(t, queues, write); got != float64(c.want) || got != copyAllocs {
			t.Errorf("env=%d: %v allocations per Mutate, want %d, one DeepCopyObject (%v)", c.envVars, got, c.want, copyAllocs)
		}
	}
}

// TestBindCopiesOnce: a placement through Client.Bind costs one allocation
// whether the pod carries 0 or 64 env vars — the closure's object, which
// shares the stored spec and which the store publishes whole — where a
// Mutate and a MutateStatus writing the same fields cost a DeepCopyObject
// and a struct.
func TestBindCopiesOnce(t *testing.T) {
	for _, envVars := range []int{0, 64} {
		queues, write, _ := mutateRig(t, envVars, store.VerbBind)
		if got := writeAllocs(t, queues, write); got != 1 {
			t.Errorf("env=%d: %v allocations per Bind, want 1", envVars, got)
		}
	}
}

// createRig is one Client.Create of a Pod whose container carries the given
// number of env vars, with three live watchers — the create every submitted
// job and every DevMgr holder and bound pod goes through. Every pod is
// labeled app=bench, or, with ownLabel, carries a label value of its own, as
// each bound pod's LabelSharePod and each holder's LabelVGPUHolder does. The
// pods are built before the first call, so a call costs only what Create
// allocates.
func createRig(envVars int, ownLabel bool) ([]*sim.Queue[store.Event], func() error) {
	srv := apiserver.New(sim.NewEnv())
	srv.SetWatchHistoryCap(drainEvery)
	pods := apiserver.Pods(srv)
	var queues []*sim.Queue[store.Event]
	for i := 0; i < 3; i++ {
		queues = append(queues, pods.Watch(false))
	}
	// writeAllocs' warm-up and measured calls, plus AllocsPerRun's own one.
	built := make([]*api.Pod, 12*drainEvery+1)
	for i := range built {
		env := make(map[string]string, envVars)
		for j := 0; j < envVars; j++ {
			env[fmt.Sprintf("VAR_%02d", j)] = "value"
		}
		lbls := map[string]string{"app": "bench"}
		if ownLabel {
			lbls = map[string]string{core.LabelSharePod: fmt.Sprintf("sp-%05d", i)}
		}
		built[i] = &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("p-%05d", i), Labels: lbls},
			Spec:       api.PodSpec{Containers: []api.Container{{Name: "main", Image: "train", Env: env}}},
		}
	}
	n := 0
	return queues, func() error {
		_, err := pods.Create(built[n])
		n++
		return err
	}
}

// TestCreateCopiesNothing: the store publishes the object Client.Create is
// handed, so a create costs the same at 0 and at 64 env vars — three
// allocations, none of them a copy of the pod (8 / 11 while the store
// deep-copied it) — and the same whether its label value is shared or its
// own, since the store keeps no label index (5 while a posting set per value
// was built).
func TestCreateCopiesNothing(t *testing.T) {
	for _, c := range []struct {
		envVars  int
		ownLabel bool
	}{{0, false}, {64, false}, {0, true}} {
		queues, write := createRig(c.envVars, c.ownLabel)
		if got := writeAllocs(t, queues, write); got != 3 {
			t.Errorf("env=%d own label=%v: %v allocations per Create, want 3", c.envVars, c.ownLabel, got)
		}
	}
}
