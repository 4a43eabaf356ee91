package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// minTimedReps is the fewest repetitions a time-boxed run makes, however
// short the box.
const minTimedReps = 3

// obsPairs is how many interleaved obs-on/obs-off run pairs the traced
// stage makes for obs.overhead_frac (one on a -quick run).
const obsPairs = 3

// set is the timed repetitions of one workload, each a fresh process.
type set struct {
	workload string
	reps     []repResult
	problems []string // violated checks, within and across repetitions
}

func (s *set) values(metric string) []float64 {
	out := make([]float64, len(s.reps))
	for i, r := range s.reps {
		out[i] = r.Metrics[metric]
	}
	return out
}

// tally sums the ops attempted and failed over runs.
func tally(runs []repResult) (attempted, failed int) {
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return attempted, failed
}

func (s *set) correct() bool {
	_, failed := tally(s.reps)
	return failed == 0 && len(s.problems) == 0
}

// measure runs timed repetitions of one workload (what names the workload,
// seed and scale): at least minReps, and with a budget as many more as end
// within it.
func measure(what childOpts, minReps int, budget time.Duration) (*set, error) {
	s := &set{workload: what.workload}
	start := time.Now()
	var last time.Duration
	for i := 0; i < minReps || time.Since(start)+last <= budget; i++ {
		t := time.Now()
		r, err := spawn(what)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		s.reps = append(s.reps, r)
	}
	s.problems = crossCheck(s.reps)
	return s, nil
}

// virtMetrics are the end-to-end metrics on the virtual clock: at one seed
// they repeat exactly, or the simulation is not deterministic.
var virtMetrics = []string{"virt_makespan_s", "virt_start_mean_ms"}

// crossCheck collects each repetition's violated checks and verifies that
// all of them agree on the digest and on every virtual-clock metric.
func crossCheck(reps []repResult) []string {
	var out []string
	for i, r := range reps {
		for _, p := range r.Problems {
			out = append(out, fmt.Sprintf("rep %d: %s", i, p))
		}
		if r.Digest != reps[0].Digest {
			out = append(out, fmt.Sprintf("rep %d: digest %s differs from rep 0's %s", i, r.Digest, reps[0].Digest))
		}
		for _, m := range virtMetrics {
			if r.Metrics[m] != reps[0].Metrics[m] {
				out = append(out, fmt.Sprintf("rep %d: %s = %v differs from rep 0's %v", i, m, r.Metrics[m], reps[0].Metrics[m]))
			}
		}
	}
	return out
}

// tracedResult is the traced stage of one workload.
type tracedResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (t *tracedResult) correct() bool { return t.failed == 0 && len(t.problems) == 0 }

// traced runs the traced stage: interleaved untraced runs with the telemetry
// runtime on and off (the on runs double as the untraced reference for
// trace_overhead_frac and the digest), then the three passes, whose spans it
// writes out as one file. With a budget it stops pairing once another pair
// would overrun half of it.
func traced(what childOpts, pairs int, budget time.Duration) (*tracedResult, error) {
	start := time.Now()
	var on, off []repResult
	var last time.Duration
	for i := 0; i < pairs && (i == 0 || budget == 0 || time.Since(start)+last <= budget/2); i++ {
		t := time.Now()
		// Alternate which arm goes first, so drift charges both equally.
		for _, disable := range []bool{i%2 == 1, i%2 == 0} {
			o := what
			o.disableObs = disable
			r, err := spawn(o)
			if err != nil {
				return nil, err
			}
			if disable {
				off = append(off, r)
			} else {
				on = append(on, r)
			}
		}
		last = time.Since(t)
	}
	wallOf := func(runs []repResult) float64 { return median((&set{reps: runs}).values("wall_s")) }
	untraced := wallOf(on)
	m := map[string]float64{"obs.overhead_frac": untraced/wallOf(off) - 1}
	all := append(append([]repResult{}, on...), off...)
	var tr tracer

	// Pass (p), repeated in fresh processes until the samples suffice.
	var counts profileCounts
	for i := 0; i < maxProfileRuns && counts.Total < wantSamples; i++ {
		r, err := spawnPass(what, passProfile)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			m["trace_overhead_frac"] = r.Metrics["wall_s"]/untraced - 1
		}
		counts.add(r.Samples)
		tr.adopt(r.Spans)
		all = append(all, r)
	}
	counts.shares(m)
	for _, pass := range []string{passSpans, passDrivers} {
		r, err := spawnPass(what, pass)
		if err != nil {
			return nil, err
		}
		for k, v := range r.Metrics {
			m[k] = v
		}
		tr.adopt(r.Spans)
		if pass == passSpans {
			all = append(all, r)
		}
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+what.workload+".json")); err != nil {
		return nil, err
	}

	res := &tracedResult{metrics: m}
	res.attempted, res.failed = tally(all)
	// The profiled and stepped passes and the telemetry-off runs must place
	// exactly as the untraced run does; only the digest is comparable across
	// all of them.
	for i, r := range all {
		res.problems = append(res.problems, r.Problems...)
		if r.Digest != all[0].Digest {
			res.problems = append(res.problems,
				fmt.Sprintf("traced-stage run %d: digest %s differs from the untraced %s", i, r.Digest, all[0].Digest))
		}
	}
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			return nil, fmt.Errorf("%s: traced stage did not report %s", what.workload, d.name)
		}
	}
	return res, nil
}

func spawnPass(what childOpts, pass string) (repResult, error) {
	what.pass = pass
	return spawn(what)
}

// treeVersion is the measured tree's commit and dirty flag: from the VCS
// settings `go build` embeds in the binary, else (under `go run` and
// `go test`, which embed none) from git in the working directory, else
// "unknown" (a checkout that is not a git repository).
func treeVersion() (commit, dirty string) {
	commit, dirty = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	if commit != "unknown" {
		return commit, dirty
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return commit, dirty
	}
	commit = strings.TrimSpace(string(head))
	if changes, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		dirty = strconv.FormatBool(len(changes) > 0)
	}
	return commit, dirty
}

// stamp identifies what was measured and how: the tree, the toolchain, the
// machine, and the run's parameters.
func stamp(o options) string {
	commit, dirty := treeVersion()
	reps := fmt.Sprint(o.reps())
	if o.seconds > 0 {
		reps = fmt.Sprintf(">=%d in %ds", minTimedReps, o.seconds)
	}
	return fmt.Sprintf("commit=%s dirty=%s %s nproc=%d child_GOMAXPROCS=%d seed=%d reps=%s scale=%g",
		commit, dirty, runtime.Version(), runtime.NumCPU(), childProcs(), o.seed, reps, o.scale)
}

func printSet(s *set) {
	fmt.Printf("\n%s  (%d fresh-process repetitions; median [q1, q3] n)\n", s.workload, len(s.reps))
	for _, d := range endToEnd {
		vs := s.values(d.name)
		q1, q2, q3 := quartiles(vs)
		fmt.Printf("  %-20s %14.6g %-8s [%.6g, %.6g] n=%d\n", d.name, q2, d.unit, q1, q3, len(vs))
	}
	// Percentiles of the start latency sit on the control plane's fixed
	// latency steps, so they are shown here and in the traced stage but carry
	// no bound (README: "Why mean, not p50/p95").
	for _, name := range []string{"virt_start_p50_ms", "virt_start_p95_ms"} {
		fmt.Printf("  %-20s %14.6g %-8s (n=%d sharePods, no bound)\n", name, s.reps[0].Metrics[name], "virt_ms", s.reps[0].Attempted)
	}
	attempted, failed := tally(s.reps)
	fmt.Printf("  %-20s %14d\n  %-20s %14d\n  %-20s %14s\n",
		"ops_attempted", attempted, "ops_failed", failed, "digest", s.reps[0].Digest)
	printProblems(s.problems)
}

func printTraced(workload string, t *tracedResult) {
	fmt.Printf("\n%s  traced stage (spans in %s/trace-%s.json)\n", workload, outDir, workload)
	for _, d := range perLayer {
		fmt.Printf("  %-34s %16.6g %s\n", d.name, t.metrics[d.name], d.unit)
	}
	printProblems(t.problems)
}

func printProblems(ps []string) {
	for _, p := range ps {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// fullRun measures every workload (or the one named) at a fixed repetition
// count and prints each metric by name with its unit.
func fullRun(o options) error {
	fmt.Println("kubeshare benchmark:", stamp(o))
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	ok := true
	for _, w := range names {
		what := childOpts{workload: w, seed: o.seed, scale: o.scale}
		s, err := measure(what, o.reps(), 0)
		if err != nil {
			return err
		}
		printSet(s)
		ok = ok && s.correct()
		if o.trace {
			pairs := obsPairs
			if o.quick {
				pairs = 1
			}
			t, err := traced(what, pairs, 0)
			if err != nil {
				return err
			}
			printTraced(w, t)
			ok = ok && t.correct()
		}
	}
	if !ok {
		return errors.New("output checks failed")
	}
	return nil
}

// driverResult is the one JSON object the driver reads from the last line.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRun is the form BENCHMARK.json's command takes: one workload,
// measured for -seconds, the result as one JSON object on the last line.
func contractRun(o options) error {
	fmt.Println("kubeshare benchmark:", stamp(o))
	budget := time.Duration(o.seconds) * time.Second
	what := childOpts{workload: o.workload, seed: o.seed, scale: o.scale}
	res := driverResult{Metrics: map[string]driverValue{}}
	if o.trace {
		t, err := traced(what, obsPairs, budget)
		if err != nil {
			return err
		}
		printTraced(o.workload, t)
		res.Correct, res.Attempted, res.Failed = t.correct(), t.attempted, t.failed
		for _, d := range perLayer {
			res.Metrics[d.name] = driverValue{t.metrics[d.name], d.unit}
		}
	} else {
		s, err := measure(what, minTimedReps, budget)
		if err != nil {
			return err
		}
		printSet(s)
		res.Correct = s.correct()
		res.Attempted, res.Failed = tally(s.reps)
		for _, d := range endToEnd {
			res.Metrics[d.name] = driverValue{median(s.values(d.name)), d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// selfcheck runs two complete untraced sets back to back and fails if any
// metric's medians differ by more than its bound: the benchmark's own
// bounds must hold between two measurements of the same code.
func selfcheck(o options) error {
	fmt.Println("kubeshare benchmark selfcheck:", stamp(o))
	var sets [2]map[string]*set
	for i := range sets {
		sets[i] = map[string]*set{}
		for _, w := range workloadNames {
			s, err := measure(childOpts{workload: w, seed: o.seed, scale: o.scale}, o.reps(), 0)
			if err != nil {
				return err
			}
			if !s.correct() {
				printSet(s)
				return errors.New("output checks failed")
			}
			sets[i][w] = s
		}
	}
	fmt.Printf("\n%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1 median", "set 2 median", "diff", "bound")
	var bad []string
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			a, b := median(sets[0][w].values(d.name)), median(sets[1][w].values(d.name))
			diff := (b - a) / a
			mark := ""
			if math.Abs(diff) > d.bound {
				mark = "  OUT OF BOUND"
				bad = append(bad, w+"/"+d.name)
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w, d.name, a, b, 100*diff, 100*d.bound, mark)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("two sets of the same code disagree beyond the bound on %s", strings.Join(bad, ", "))
	}
	return nil
}
