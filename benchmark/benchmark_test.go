package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: spawn
// re-executes os.Executable with -child first, and that must run one
// repetition, not the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestInputIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, 0.1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w)
		}
		c, _ := generate(w, 8, 0.1)
		if reflect.DeepEqual(a.pods, c.pods) && reflect.DeepEqual(a.arrivals, c.arrivals) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", w)
		}
		if len(a.pods) != a.spec.jobs || len(a.arrivals) != len(a.pods) {
			t.Errorf("%s: %d pods, %d arrivals for %d jobs", w, len(a.pods), len(a.arrivals), a.spec.jobs)
		}
		for i := 1; i < len(a.arrivals); i++ {
			if a.arrivals[i] < a.arrivals[i-1] {
				t.Fatalf("%s: arrival %d precedes arrival %d", w, i, i-1)
			}
		}
	}
	// The open-loop window is the same for every seed: only burstiness moves.
	a, _ := generate(wColdStart, 1, 0.1)
	b, _ := generate(wColdStart, 2, 0.1)
	window := time.Duration(a.spec.jobs) * a.spec.meanGap
	for _, in := range []*input{a, b} {
		if last := in.arrivals[len(in.arrivals)-1]; last > window || last < window*9/10 {
			t.Errorf("seed %d: last arrival %v outside the %v window", in.seed, last, window)
		}
	}
	if _, err := generate("no_such_workload", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestQuantileHelpers(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	q1, q2, q3 := quartiles(xs)
	if q1 != 1.75 || q2 != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles(1..4) = %v %v %v, want 1.75 2.5 3.25", q1, q2, q3)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	hundred := make([]float64, 101)
	for i := range hundred {
		hundred[i] = float64(i)
	}
	if got := quantile(hundred, 0.95); got != 95 {
		t.Errorf("p95 of 0..100 = %v, want 95", got)
	}
	if quantile(hundred, 0) != 0 || quantile(hundred, 1) != 100 {
		t.Error("q=0 and q=1 are not the minimum and maximum")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// cannedTraces is `go tool pprof -traces -sample_index=samples` output with
// one stack of every kind the attribution distinguishes.
const cannedTraces = `File: kubeshare-bench
Build ID: 0123
Type: samples
Time: 2026-01-01 00:00:00 UTC
Duration: 4.20s, Total samples = 20
-----------+-------------------------------------------------------
         4   runtime.memmove
             runtime.mallocgc
             runtime.newobject
             kubeshare/internal/kube/api.cloneMap (inline)
             kubeshare/internal/kube/api.ObjectMeta.CloneMeta
             kubeshare/internal/kube/store.(*Store).Create
             kubeshare/internal/kube/apiserver.Client[go.shape.*kubeshare/internal/core.SharePod].Create
             main.(*world).submitter
             kubeshare/internal/sim.(*Env).spawn.func1
-----------+-------------------------------------------------------
         3   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
         2   runtime.futex
             runtime.futexsleep
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
         1   runtime.nanotime
             runtime.main
-----------+-------------------------------------------------------
         5   math/rand.(*rngSource).Seed
             math/rand.NewSource (inline)
             kubeshare/internal/simrand.New
             kubeshare/internal/backoff.New
             kubeshare/internal/devlib.(*Frontend).acquireLease
             kubeshare/internal/devlib.(*Frontend).LaunchKernel
             kubeshare/internal/workload.serveMain
             kubeshare/internal/sim.(*Env).spawn.func1
-----------+-------------------------------------------------------
         2   kubeshare/internal/core/schedfw/plugins.bestFit.Score
             kubeshare/internal/core/schedfw/fwk.(*Engine).Run
             kubeshare/internal/core/schedfw.(*Scheduler).runCycle
             kubeshare/internal/sim.(*Env).spawn.func1
-----------+-------------------------------------------------------
         1   runtime.gcAssistAlloc
             runtime.mallocgc
             kubeshare/internal/devlib/sharing.(*MPS).Admit
             kubeshare/internal/devlib.(*Frontend).acquireLease
-----------+-------------------------------------------------------
         2   runtime.mapaccess1_faststr
             kubeshare/internal/kube/labels.Selector.Matches
             kubeshare/internal/kube/store.(*bucket).listSelector
             kubeshare/internal/obs/tsdb.(*Collector).scrape
`

func TestParseTracesAndAttribution(t *testing.T) {
	samples, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("parsed %d stacks, want 8", len(samples))
	}
	if s := samples[0]; s.count != 4 || len(s.frames) != 9 || s.frames[3] != "kubeshare/internal/kube/api.cloneMap" {
		t.Errorf("first stack parsed as %+v", s)
	}
	counts := attribute(samples)
	if counts.Total != 20 {
		t.Fatalf("total = %d samples, want 20", counts.Total)
	}
	shares := map[string]float64{}
	counts.shares(shares)
	want := map[string]float64{
		// Allocation under api.cloneMap is the api layer's, not the runtime's.
		"api.cpu_self_frac": 4.0 / 20,
		// No repo frame: the collector, the scheduler, and the rest.
		"go_gc.cpu_self_frac":    3.0 / 20,
		"go_sched.cpu_self_frac": 2.0 / 20,
		"go_other.cpu_self_frac": 1.0 / 20,
		// RNG seeding under backoff.New is simrand's self time…
		"simrand.cpu_self_frac": 5.0 / 20,
		"backoff.cpu_self_frac": 0,
		"devlib.cpu_self_frac":  0,
		// …sub-packages fold into their layer…
		"schedfw.cpu_self_frac": 2.0 / 20,
		// …a GC assist inside a layer's allocation is that layer's…
		"sharing.cpu_self_frac": 1.0 / 20,
		// …and kube/labels is no layer of its own: its caller, store, pays.
		"store.cpu_self_frac": 2.0 / 20,
		// Inclusive: the layer anywhere on the stack.
		"devlib.cpu_incl_frac":    6.0 / 20,
		"sharing.cpu_incl_frac":   1.0 / 20,
		"store.cpu_incl_frac":     6.0 / 20,
		"apiserver.cpu_incl_frac": 4.0 / 20,
		"sim.cpu_incl_frac":       11.0 / 20,
		"schedfw.cpu_incl_frac":   2.0 / 20,
		"obs.cpu_incl_frac":       2.0 / 20,
	}
	for k, v := range want {
		if got, ok := shares[k]; !ok || math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	selfSum := 0.0
	for _, l := range layers {
		selfSum += shares[l+".cpu_self_frac"]
	}
	if math.Abs(selfSum-1) > 1e-12 {
		t.Errorf("self shares sum to %v, want 1", selfSum)
	}
	if _, err := parseTraces(strings.NewReader("-----------+---\n   oops   runtime.main\n")); err == nil {
		t.Error("a stack without a sample count parsed")
	}
}

func goodPlacements() ([]string, []placement) {
	names := []string{"a", "b", "c"}
	recs := []placement{
		{Name: "a", Node: "n0", GPUID: "g0", Scheduled: 1 * time.Second, Started: 2 * time.Second, Finish: 5 * time.Second, Request: 0.5, Mem: 0.5, Succeeded: true},
		{Name: "b", Node: "n0", GPUID: "g0", Scheduled: 2 * time.Second, Started: 3 * time.Second, Finish: 6 * time.Second, Request: 0.5, Mem: 0.5, Succeeded: true},
		// Takes a's slice at the instant a leaves it.
		{Name: "c", Node: "n0", GPUID: "g0", Scheduled: 5 * time.Second, Started: 6 * time.Second, Finish: 9 * time.Second, Request: 0.5, Mem: 0.3, Succeeded: true},
	}
	return names, recs
}

func TestOutputChecks(t *testing.T) {
	names, recs := goodPlacements()
	good := checkPlacements(names, recs)
	if good.failed != 0 || len(good.problems) != 0 {
		t.Fatalf("clean placements failed the checks: %v", good.problems)
	}
	if good.makespan != 9*time.Second || len(good.startLat) != 3 || good.startLat[0] != 2000 {
		t.Errorf("makespan %v, start latencies %v", good.makespan, good.startLat)
	}

	mutate := func(f func(recs []placement) []placement) outcome {
		names, recs := goodPlacements()
		return checkPlacements(names, f(recs))
	}
	hasProblem := func(o outcome, sub string) bool {
		for _, p := range o.problems {
			if strings.Contains(p, sub) {
				return true
			}
		}
		return false
	}

	over := mutate(func(r []placement) []placement { r[2].Scheduled = 4 * time.Second; return r })
	if over.failed == 0 || !hasProblem(over, "over-committed") {
		t.Errorf("three half-GPU tenants at once not caught: %v", over.problems)
	}
	overMem := mutate(func(r []placement) []placement { r[1].Mem = 0.6; return r })
	if overMem.failed == 0 || !hasProblem(overMem, "over-committed") {
		t.Errorf("memory over-commit not caught: %v", overMem.problems)
	}
	double := mutate(func(r []placement) []placement {
		dup := r[0]
		dup.GPUID = "g1"
		return append(r, dup)
	})
	if double.failed == 0 || !hasProblem(double, "placed 2 times") {
		t.Errorf("double placement not caught: %v", double.problems)
	}
	requeued := mutate(func(r []placement) []placement { r[0].Restarts = 1; return r })
	if requeued.failed != 1 || !hasProblem(requeued, "re-placed") {
		t.Errorf("re-placement not caught: %v", requeued.problems)
	}
	missing := mutate(func(r []placement) []placement { return r[:2] })
	if missing.failed != 1 || !hasProblem(missing, "absent") {
		t.Errorf("missing sharePod not caught: %v", missing.problems)
	}
	unplaced := mutate(func(r []placement) []placement { r[1].GPUID, r[1].Node = "", ""; return r })
	if unplaced.failed != 1 || !hasProblem(unplaced, "never placed") {
		t.Errorf("unplaced sharePod not caught: %v", unplaced.problems)
	}

	moved := mutate(func(r []placement) []placement { r[0].GPUID = "g7"; return r })
	if moved.digest == good.digest {
		t.Error("digest did not change with a placement")
	}
	reps := []repResult{
		{Digest: good.digest, Metrics: map[string]float64{"virt_makespan_s": 9}},
		{Digest: moved.digest, Metrics: map[string]float64{"virt_makespan_s": 9}},
	}
	if ps := crossCheck(reps); len(ps) != 1 || !strings.Contains(ps[0], "digest") {
		t.Errorf("digest mismatch across reps not caught: %v", ps)
	}
	reps[1].Digest = good.digest
	reps[1].Metrics["virt_makespan_s"] = 9.5
	if ps := crossCheck(reps); len(ps) != 1 || !strings.Contains(ps[0], "virt_makespan_s") {
		t.Errorf("virtual-clock drift across reps not caught: %v", ps)
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload w --seed 3 --seconds 5 --trace 1", "--workload w --seed 3 --seconds 5 -trace=1"},
		{"--trace 0 --seed 3", "-trace=0 --seed 3"},
		{"-seed 1 -trace", "-seed 1 -trace"},
		{"-trace -quick", "-trace -quick"},
	} {
		got := strings.Join(normalizeTrace(strings.Fields(c.in)), " ")
		if got != c.want {
			t.Errorf("normalizeTrace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	o, err := parseFlags(strings.Fields("--workload cold_start --seed 3 --seconds 5 --trace 1"))
	if err != nil || !o.trace || o.seed != 3 || o.seconds != 5 || o.workload != wColdStart {
		t.Errorf("driver flags parsed as %+v, %v", o, err)
	}
	if o, err := parseFlags(strings.Fields("--workload cold_start --trace 0")); err != nil || o.trace {
		t.Errorf("--trace 0 parsed as %+v, %v", o, err)
	}
}

// TestStampNamesTheTree: a test binary (like `go run`) carries no VCS build
// settings, so inside a git checkout the stamp must come from git itself.
func TestStampNamesTheTree(t *testing.T) {
	if err := exec.Command("git", "rev-parse", "HEAD").Run(); err != nil {
		t.Skip("not inside a git checkout:", err)
	}
	commit, dirty := treeVersion()
	if len(commit) < 40 || (dirty != "true" && dirty != "false") {
		t.Errorf("treeVersion() = %q, %q inside a git checkout", commit, dirty)
	}
	got := stamp(options{seed: 3, scale: 1})
	for _, want := range []string{"commit=" + commit, "dirty=" + dirty, "go1.", "nproc=", "child_GOMAXPROCS=", "seed=3", "reps=7"} {
		if !strings.Contains(got, want) {
			t.Errorf("stamp %q lacks %q", got, want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesBenchmarkJSON holds BENCHMARK.json to the tables the
// program reports from.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range doc.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	for _, m := range doc.EndToEnd {
		check("end-to-end metric", m.Name)
	}
	for _, m := range doc.PerLayer {
		check("per-layer metric", m.Name)
	}
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(doc.PerLayer))
	}
}

// TestQuickRunEmitsListedNames runs the smallest real thing: fresh child
// processes of a scaled-down input, untraced on every workload and traced on
// one full-stack workload and the control-plane one, and checks that what
// comes back is exactly the listed metrics, correct, and deterministic.
func TestQuickRunEmitsListedNames(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	// Span files and profiles land under ./benchmark/out of a scratch directory.
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(prev) }) // best effort: later tests read ../BENCHMARK.json
	const scale = 0.02
	for _, w := range workloadNames {
		s, err := measure(childOpts{workload: w, seed: 1, scale: scale}, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if attempted, failed := tally(s.reps); !s.correct() || attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", w, attempted, failed, s.problems)
		}
		for _, r := range s.reps {
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.name]; !ok || v <= 0 {
					t.Errorf("%s: %s = %v, want a positive reading", w, d.name, v)
				}
			}
		}
	}
	for _, w := range []string{wDurableRestart, wSchedChurn} {
		tr, err := traced(childOpts{workload: w, seed: 1, scale: scale}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.correct() {
			t.Errorf("%s traced: failed %d, problems %v", w, tr.failed, tr.problems)
		}
		if len(tr.metrics) != len(perLayer) {
			listed := map[string]bool{}
			for _, d := range perLayer {
				listed[d.name] = true
			}
			for k := range tr.metrics {
				if !listed[k] {
					t.Errorf("%s traced: reports %s, which BENCHMARK.json does not list", w, k)
				}
			}
		}
		if tr.metrics["profile.samples"] <= 0 {
			t.Errorf("%s traced: no CPU samples", w)
		}
		data, err := os.ReadFile(outDir + "/trace-" + w + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: span file: %d spans, %v", w, len(spans), err)
		}
		// Children lie inside their parents, so a span minus its children is a
		// self time.
		for _, s := range spans {
			if s.EndNS < s.StartNS {
				t.Errorf("%s: span %d (%s) ends before it starts", w, s.ID, s.Name)
			}
			if s.Parent != 0 {
				if p := spans[s.Parent-1]; s.StartNS < p.StartNS || s.EndNS > p.EndNS {
					t.Errorf("%s: span %d (%s) is not inside its parent %s", w, s.ID, s.Name, p.Name)
				}
			}
		}
	}
}
