// Command kubeshare-sim regenerates the paper's evaluation tables and
// figures on the simulated cluster.
//
// Usage:
//
//	kubeshare-sim [-scale quick|full] [-csv] [-seed N] [experiment ...]
//	kubeshare-sim [-seed N] trace [-key KEY]
//	kubeshare-sim [-seed N] profile [-folded]
//	kubeshare-sim [-scale quick|full] [-seed N] serve [-addr HOST:PORT] [-speed X]
//	kubeshare-sim [-scale quick|full] [-seed N] [-csv] audit
//	kubeshare-sim -cpuprofile FILE [-memprofile FILE] <any of the above>
//
// Experiments: table1 fig5 fig6 fig7 fig8a fig8b fig8c fig9 fig10 fig11
// fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 latency, or "all" (the
// default). Full scale matches the paper's 8-node × 4-GPU testbed and 5-run
// averages; quick scale shrinks the cluster and workloads for fast iteration.
//
// The -strategy flag selects the GPU-sharing strategy (token, mps or
// replica) for the trace and -replay runs, e.g.
//
//	kubeshare-sim -strategy mps trace
//
// stamps every sharePod with the mps sharing-mode annotation and sets the
// node default to match; fig18 compares all strategies side by side.
//
// The trace subcommand runs a small seeded workload with the observability
// spine on and prints one object's causal span chain — submission through
// scheduling, binding, holder readiness, kubelet sync, token grant and first
// kernel launch — followed by the events involving it. The default key is
// SharePod/job-000; pass -key (or a positional key, e.g. "VGPU/vgpu-0001")
// to follow a different chain, or "all" for the complete span log.
//
// The profile subcommand runs the same workload with critical-path
// attribution on and prints where the latency went: the phase-level budget
// (queue wait, retry, scheduling, binding, handoff, pod sync, token wait,
// launch) over every completed sharePod chain, plus the flat virtual-time
// span profile per (component, op). With -folded it emits collapsed-stack
// lines that flamegraph.pl or speedscope render directly.
//
// The -cpuprofile and -memprofile flags profile the simulator itself — host
// CPU samples over the whole command and the heap as it returns, in pprof
// format (`go tool pprof -top FILE`) — where the profile subcommand reports
// virtual time only. They wrap every subcommand that returns; serve runs
// until interrupted and so never writes them.
//
// The serve subcommand replays the seeded Fig 9 sharing workload paced
// against the wall clock and exports its telemetry over HTTP: a Prometheus
// /metrics scrape endpoint, /series TSDB range queries, /alerts SLO states,
// the /audit fairness report and NDJSON /trace and /events logs.
//
// The audit subcommand runs the per-tenant fairness audit and prints the
// token-share accounting and per-GPU Jain-index tables; the output is
// byte-identical across runs at the same seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/devlib"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/experiments"
	"kubeshare/internal/metrics"
	"kubeshare/internal/obs"
	"kubeshare/internal/obs/attr"
	"kubeshare/internal/workload"
)

// writeGeneratedTrace emits a Figure-8-style workload (mean demand 30%,
// variance 2, heavy load) as a replayable CSV trace.
func writeGeneratedTrace(path string, seed int64) error {
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs:             200,
		MeanInterArrival: 600 * time.Millisecond,
		DemandMean:       0.3,
		DemandVar:        2,
		JobDuration:      40 * time.Second,
		Seed:             seed,
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := workload.WriteTrace(f, jobs); err != nil {
		return err
	}
	fmt.Printf("wrote %d jobs to %s\n", len(jobs), path)
	return nil
}

// replayTrace runs a recorded workload under the chosen system on the
// paper-scale cluster and prints the outcome.
func replayTrace(path, system string, mode sharing.Mode) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	jobs, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	var sys experiments.System
	switch system {
	case "kubernetes":
		sys = experiments.Kubernetes
	case "kubeshare":
		sys = experiments.KubeShare
	case "extender":
		sys = experiments.Extender
	default:
		return fmt.Errorf("unknown system %q", system)
	}
	for i := range jobs {
		jobs[i].Mode = string(mode)
	}
	res, err := experiments.RunSharing(experiments.SharingConfig{
		System: sys, Nodes: 8, GPUsPerNode: 4, Jobs: jobs,
		Devlib: core.Config{Devlib: devlib.Config{Mode: mode}},
	})
	if err != nil {
		return err
	}
	fmt.Printf("system=%s jobs=%d completed=%d failed=%d makespan=%v throughput=%.2f jobs/min\n",
		system, len(jobs), res.Completed, res.Failed,
		res.Makespan.Round(time.Second), res.ThroughputPerMin)
	return nil
}

// runProfile executes the same seeded workload as the trace subcommand with
// critical-path attribution on and prints the virtual-time profile: the
// chains' phase-level latency budget plus the flat per-(component, op) span
// profile, or — with -folded — collapsed-stack lines for flamegraph tooling.
func runProfile(args []string, seed int64, mode sharing.Mode) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	folded := fs.Bool("folded", false, "emit collapsed-stack (flamegraph) lines instead of the flat profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 8, MeanInterArrival: 2 * time.Second,
		DemandMean: 0.35, DemandVar: 1,
		JobDuration: 10 * time.Second, Seed: seed,
		Mode: string(mode),
	})
	res, err := experiments.RunSharing(experiments.SharingConfig{
		System: experiments.KubeShare, Nodes: 1, GPUsPerNode: 2,
		Jobs: jobs, Attribution: true,
		Devlib: core.Config{Devlib: devlib.Config{Mode: mode}},
	})
	if err != nil {
		return err
	}
	p := attr.BuildProfile(res.Spans, string(mode))
	if *folded {
		p.WriteFolded(os.Stdout)
	} else {
		p.Format(os.Stdout)
	}
	return nil
}

// runTrace executes a small seeded KubeShare workload with telemetry on and
// prints the causal span chain for one trace key, the events involving that
// object, and the final metrics snapshot.
func runTrace(key string, seed int64, mode sharing.Mode) error {
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 8, MeanInterArrival: 2 * time.Second,
		DemandMean: 0.35, DemandVar: 1,
		JobDuration: 10 * time.Second, Seed: seed,
		Mode: string(mode),
	})
	res, err := experiments.RunSharing(experiments.SharingConfig{
		System: experiments.KubeShare, Nodes: 1, GPUsPerNode: 2,
		Jobs: jobs, ExportTelemetry: true,
		Devlib: core.Config{Devlib: devlib.Config{Mode: mode}},
	})
	if err != nil {
		return err
	}
	spans := res.Spans
	if key != "all" {
		spans = obs.Chain(res.Spans, key)
		if len(spans) == 0 {
			keys := map[string]bool{}
			for _, s := range res.Spans {
				keys[s.Key] = true
			}
			names := make([]string, 0, len(keys))
			for k := range keys {
				names = append(names, k)
			}
			return fmt.Errorf("no spans for key %q; known keys: %s", key, strings.Join(names, " "))
		}
	}
	fmt.Printf("--- causal chain: %s (seed %d) ---\n", key, seed)
	obs.FormatSpans(os.Stdout, spans)
	// Events name the concrete objects (pods, vGPUs), not the trace key, so
	// match on the bare object name embedded in the key.
	_, bare, _ := strings.Cut(key, "/")
	var evs []obs.EventRecord
	for _, e := range res.Events {
		if key == "all" || strings.Contains(e.Name, bare) || strings.Contains(e.Message, bare) {
			evs = append(evs, e)
		}
	}
	fmt.Printf("--- events ---\n")
	obs.FormatEvents(os.Stdout, evs)
	fmt.Printf("--- metrics ---\n")
	res.Obs.Format(os.Stdout)
	return nil
}

func main() { os.Exit(realMain()) }

// realMain is main returning its exit status, so the deferred profile
// writers run on every path out.
func realMain() int {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Int64("seed", 1, "workload random seed")
	genTrace := flag.String("gen-trace", "", "write a Figure-8-style workload trace to this file and exit")
	replay := flag.String("replay", "", "replay a workload trace file instead of running named experiments")
	system := flag.String("system", "kubeshare", "system for -replay: kubernetes, kubeshare or extender")
	strategy := flag.String("strategy", "", "GPU-sharing strategy for trace/-replay runs: token, mps or replica (default: node default)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of the whole command to this file")
	memprofile := flag.String("memprofile", "", "write a host heap profile (taken as the command returns) to this file")
	flag.Parse()

	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stop()

	var mode sharing.Mode
	if *strategy != "" {
		if mode, err = sharing.ParseMode(*strategy); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	if *genTrace != "" {
		if err := writeGeneratedTrace(*genTrace, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if *replay != "" {
		if err := replayTrace(*replay, *system, mode); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	full := false
	switch *scale {
	case "quick":
	case "full":
		full = true
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		return 2
	}

	if args := flag.Args(); len(args) > 0 {
		switch args[0] {
		case "trace":
			fs := flag.NewFlagSet("trace", flag.ExitOnError)
			key := fs.String("key", "SharePod/job-000", `trace key to follow ("all" for the complete span log)`)
			if err := fs.Parse(args[1:]); err != nil {
				return 2
			}
			k := *key
			if fs.NArg() > 0 {
				k = fs.Arg(0) // positional form kept for compatibility
			}
			if err := runTrace(k, *seed, mode); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		case "profile":
			if err := runProfile(args[1:], *seed, mode); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		case "serve":
			if err := runServe(args[1:], *seed, full); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		case "audit":
			if err := runAudit(*seed, full, *csv); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		}
	}

	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = []string{"table1", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig8c",
			"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
			"fig17", "fig18", "fig19"}
	}
	for _, name := range names {
		tb, err := run(name, full, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		if *csv {
			fmt.Printf("# %s\n", tb.Title)
			if err := tb.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		} else {
			tb.Render(os.Stdout)
		}
		fmt.Println()
	}
	return 0
}

// run executes one named experiment at the requested scale.
func run(name string, full bool, seed int64) (*metrics.Table, error) {
	// Quick scale shrinks the cluster to 2×4 GPUs and the workloads to
	// roughly a quarter of the paper's; full scale is the paper's testbed.
	fig8 := experiments.Fig8Config{Seed: seed}
	if full {
		fig8.Repeats = 5
	} else {
		fig8.Nodes, fig8.GPUsPerNode = 2, 4
		fig8.Jobs = 60
		fig8.JobDuration = 30 * time.Second
	}
	switch name {
	case "table1":
		return experiments.Table1(experiments.Table1Config{})
	case "fig5":
		return experiments.Fig5(experiments.Fig5Config{Seed: seed})
	case "fig6":
		cfg := experiments.Fig6Config{}
		if !full {
			cfg.Stagger = 100 * time.Second
		}
		res, err := experiments.Fig6(cfg)
		if err != nil {
			return nil, err
		}
		chart := metrics.NewChart("Figure 6 timeline: per-job GPU usage share")
		chart.YMax = 1
		for _, name := range []string{"job-a", "job-b", "job-c"} {
			chart.Add(res.Usage[name])
		}
		chart.Render(os.Stdout)
		return res.Table, nil
	case "fig7":
		cfg := experiments.Fig7Config{}
		if !full {
			cfg.Steps = 2000
		}
		return experiments.Fig7(cfg)
	case "fig8a":
		return experiments.Fig8a(fig8, nil)
	case "fig8b":
		return experiments.Fig8b(fig8, nil)
	case "fig8c":
		return experiments.Fig8c(fig8, nil)
	case "fig9":
		cfg := experiments.Fig9Config{Fig8Config: fig8}
		if !full {
			cfg.FreqFactor = 2.5
		}
		res, err := experiments.Fig9(cfg)
		if err != nil {
			return nil, err
		}
		util := metrics.NewChart("Figure 9 timeline: average GPU utilization")
		util.YMax = 1
		res.Util[experiments.Kubernetes].Name = "kubernetes"
		res.Util[experiments.KubeShare].Name = "kubeshare"
		util.Add(res.Util[experiments.Kubernetes]).Add(res.Util[experiments.KubeShare])
		util.Render(os.Stdout)
		active := metrics.NewChart("Figure 9 timeline: allocated GPUs")
		res.Active[experiments.Kubernetes].Name = "kubernetes"
		res.Active[experiments.KubeShare].Name = "kubeshare"
		active.Add(res.Active[experiments.Kubernetes]).Add(res.Active[experiments.KubeShare])
		active.Render(os.Stdout)
		return res.Table, nil
	case "fig10":
		cfg := experiments.Fig10Config{}
		if !full {
			cfg.Concurrency = []int{1, 4, 16}
			cfg.Nodes = 2
		}
		return experiments.Fig10(cfg)
	case "fig11":
		return experiments.Fig11(experiments.Fig11Config{})
	case "fig12":
		cfg := experiments.Fig12Config{}
		if !full {
			cfg.Steps = 2000
		}
		return experiments.Fig12(cfg)
	case "fig13":
		cfg := experiments.Fig13Config{Seed: seed}
		if !full {
			cfg.Jobs, cfg.Steps = 24, 1000
			cfg.Nodes, cfg.GPUsPerNode = 1, 4
		}
		return experiments.Fig13(cfg)
	case "latency":
		cfg := experiments.LatencyConfig{Fig9Config: experiments.Fig9Config{Fig8Config: fig8}}
		if !full {
			cfg.FreqFactor = 2.5
		}
		res, err := experiments.Latency(cfg)
		if err != nil {
			return nil, err
		}
		return res.Table, nil
	case "fig14":
		cfg := experiments.Fig14Config{Seed: seed}
		if !full {
			cfg.Nodes, cfg.Jobs = 2, 12
			cfg.JobDuration = 10 * time.Second
			cfg.Intensities = []float64{0, 1, 2}
		}
		return experiments.Fig14(cfg)
	case "fig15":
		cfg := experiments.Fig15Config{}
		if !full {
			cfg.Counts = []int{200, 1000}
			cfg.Batch = 32
		}
		return experiments.Fig15(cfg)
	case "fig16":
		cfg := experiments.Fig16Config{}
		if !full {
			cfg.Sizes = []int{500, 2000}
			cfg.Nodes = 16
		}
		return experiments.Fig16(cfg)
	case "fig17":
		cfg := experiments.Fig17Config{Seed: seed}
		if !full {
			cfg.Nodes, cfg.Jobs = 2, 12
			cfg.JobDuration = 10 * time.Second
			cfg.RestartMeans = []time.Duration{20 * time.Second, 10 * time.Second}
			cfg.CheckpointIntervals = []time.Duration{5 * time.Second, -1}
		}
		return experiments.Fig17(cfg)
	case "fig18":
		cfg := experiments.Fig18Config{Seed: seed}
		if !full {
			cfg.Nodes, cfg.GPUsPerNode, cfg.Jobs = 1, 4, 16
			cfg.JobDuration = 10 * time.Second
		}
		mem, err := experiments.Fig18MemBytes(cfg)
		if err != nil {
			return nil, err
		}
		mem.Render(os.Stdout)
		return experiments.Fig18(cfg)
	case "fig19":
		cfg := experiments.Fig18Config{Seed: seed}
		if !full {
			cfg.Nodes, cfg.GPUsPerNode, cfg.Jobs = 1, 4, 16
			cfg.JobDuration = 10 * time.Second
		}
		return experiments.Fig19(cfg)
	}
	return nil, fmt.Errorf("unknown experiment (want table1, fig5..fig19, latency)")
}
