package experiments

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/metrics"
)

// A claim is one statement of the paper's §5 (or of an extension figure),
// checked on its experiment's quick run at seed 1. Every claim is stated
// once, here: TestClaims checks it and renders its verdict into
// EXPERIMENTS.md.
type claim struct {
	fig, id string
	// claim is what the paper claims, in words; paper is the paper's
	// number where it gives one.
	claim, paper string
	// rows and cols name the cells read, row-major: a row by its first
	// cell, or its first two joined by "/" (every row that matches, in
	// table order; nil reads every row), a column by its header.
	rows, cols []string
	// measure turns the cells read into the measured values; nil measures
	// the cells themselves. Fig 9's claims read its series instead.
	measure func(x []float64) []float64
	series  func(*Fig9Result) []float64
	// bound must hold for every measured value. paperBound, where set, is
	// the paper's own number when it is stricter than ours: a value inside
	// bound but outside paperBound renders ⚠️ instead of ✅.
	bound, paperBound bound
}

// bound is one comparison against constants.
type bound struct {
	op   string // <, ≤, >, ≥, =, ≠; ∈ is a ≤ v ≤ b; ± is |v − a| ≤ b
	a, b float64
}

func lt(a float64) bound          { return bound{op: "<", a: a} }
func le(a float64) bound          { return bound{op: "≤", a: a} }
func gt(a float64) bound          { return bound{op: ">", a: a} }
func ge(a float64) bound          { return bound{op: "≥", a: a} }
func eq(a float64) bound          { return bound{op: "=", a: a} }
func ne(a float64) bound          { return bound{op: "≠", a: a} }
func in(lo, hi float64) bound     { return bound{op: "∈", a: lo, b: hi} }
func near(mid, tol float64) bound { return bound{op: "±", a: mid, b: tol} }
func (b bound) set() bool         { return b.op != "" }
func (b bound) holds(v float64) bool {
	switch b.op {
	case "<":
		return v < b.a
	case "≤":
		return v <= b.a
	case ">":
		return v > b.a
	case "≥":
		return v >= b.a
	case "=":
		return v == b.a
	case "≠":
		return v != b.a
	case "∈":
		return v >= b.a && v <= b.b
	case "±":
		return math.Abs(v-b.a) <= b.b
	}
	return false
}

func (b bound) String() string {
	switch b.op {
	case "∈":
		return "∈ [" + num(b.a) + ", " + num(b.b) + "]"
	case "±":
		return num(b.a) + " ± " + num(b.b)
	}
	return b.op + " " + num(b.a)
}

// num prints v to 4 significant digits, without an exponent.
func num(v float64) string {
	v, _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Measures over the cells a claim reads, in row-major order.

// over divides every later cell by the first.
func over(x []float64) []float64 {
	out := make([]float64, 0, len(x)-1)
	for _, v := range x[1:] {
		out = append(out, v/x[0])
	}
	return out
}

// spread is the second cell's distance from the first, relative to it.
func spread(x []float64) []float64 { return []float64{math.Abs(x[0]-x[1]) / x[0]} }

// drop is the first cell less the second.
func drop(x []float64) []float64 { return []float64{x[0] - x[1]} }

// minStep is the smallest increase from one cell to the next.
func minStep(x []float64) []float64 {
	step := math.Inf(1)
	for i := 1; i < len(x); i++ {
		step = min(step, x[i]-x[i-1])
	}
	return []float64{step}
}

// count is the number of cells.
func count(x []float64) []float64 { return []float64{float64(len(x))} }

// fig9Mid is the time-weighted mean of active GPUs over the 20 s around the
// middle of KubeShare's run, where both systems are saturated.
func fig9Mid(r *Fig9Result, sys System) float64 {
	mid := r.Makespan[KubeShare] / 2
	return r.Active[sys].TimeWeightedMean(mid-10*time.Second, mid+10*time.Second)
}

// claims is every claim, in Registry order.
var claims = []claim{
	{fig: "table1", id: "packs", claim: "KubeShare packs mixed demands onto fewer GPUs (Fig 3b): active, kubeshare / extender",
		rows: []string{"mixed demands (Fig 3)/active GPUs"}, cols: []string{"extender_rr", "kubeshare"}, measure: over, bound: lt(1)},
	{fig: "table1", id: "extender-overcommits", claim: "the extender over-commits under contending 0.6 demands (Fig 3a)",
		rows: []string{"contending 0.6s/over-committed GPUs"}, cols: []string{"extender_rr"}, bound: ne(0)},
	{fig: "table1", id: "kubeshare-never-overcommits", claim: "KubeShare over-commits nothing; it queues",
		rows: []string{"contending 0.6s/over-committed GPUs"}, cols: []string{"kubeshare"}, bound: eq(0)},
	{fig: "table1", id: "deepomatic-one-device", claim: "Deepomatic uses one GPU per node: active, over-committed",
		rows: []string{"contending 0.6s/active GPUs", "contending 0.6s/over-committed GPUs"}, cols: []string{"deepomatic"}, bound: eq(1)},

	{fig: "fig5", id: "grows", claim: "usage grows with the request rate: smallest step",
		cols: []string{"gpu_usage"}, measure: minStep, bound: gt(0)},
	{fig: "fig5", id: "rate12", claim: "usage ∝ rate: 12 req/s of 25 ms passes",
		rows: []string{"12"}, cols: []string{"gpu_usage"}, bound: near(0.3, 0.05)},
	{fig: "fig5", id: "rate40", claim: "usage saturates the device by 40 req/s",
		rows: []string{"40"}, cols: []string{"gpu_usage"}, bound: ge(0.9)},

	{fig: "fig6", id: "phases", claim: "three co-run phases: A, A+B, A+B+C",
		cols: []string{"job_a"}, measure: count, bound: eq(3)},
	{fig: "fig6", id: "limit", claim: "A alone is throttled at its limit", paper: "0.6",
		rows: []string{"A alone (limit 0.6)"}, cols: []string{"job_a"}, bound: near(0.6, 0.07)},
	{fig: "fig6", id: "fair-split", claim: "A and B split the residual evenly", paper: "0.5 / 0.5",
		rows: []string{"A+B (fair split 0.5/0.5)"}, cols: []string{"job_a", "job_b"}, bound: near(0.5, 0.07)},
	{fig: "fig6", id: "request-a", claim: "with C, each gets its request: A", paper: "0.3",
		rows: []string{"A+B+C (requests 0.3/0.4/0.3)"}, cols: []string{"job_a"}, bound: near(0.3, 0.08)},
	{fig: "fig6", id: "request-b", claim: "with C, each gets its request: B", paper: "0.4",
		rows: []string{"A+B+C (requests 0.3/0.4/0.3)"}, cols: []string{"job_b"}, bound: near(0.4, 0.08)},
	{fig: "fig6", id: "request-c", claim: "with C, each gets its request: C", paper: "0.3",
		rows: []string{"A+B+C (requests 0.3/0.4/0.3)"}, cols: []string{"job_c"}, bound: near(0.3, 0.08)},

	{fig: "fig7", id: "overhead", claim: "the token costs training little: normalized throughput per quota", paper: "≥ 0.95",
		cols: []string{"normalized"}, bound: in(0.94, 1.001), paperBound: ge(0.95)},
	{fig: "fig7", id: "monotone", claim: "a larger quota costs no more: smallest step",
		cols: []string{"normalized"}, measure: minStep, bound: ge(-0.002)},

	{fig: "fig8a", id: "light", claim: "light load: speedup at frequency 1", paper: "≈1×",
		rows: []string{"1"}, cols: []string{"speedup"}, bound: in(0.9, 1.6)},
	{fig: "fig8a", id: "heavy", claim: "heavy load: speedup at frequency 16", paper: "≈2.2×",
		rows: []string{"16"}, cols: []string{"speedup"}, bound: ge(1.6)},

	{fig: "fig8b", id: "low-demand", claim: "small demands gain most: speedup at demand 0.2", paper: "≈2.5×",
		rows: []string{"0.2"}, cols: []string{"speedup"}, bound: ge(1.8)},
	{fig: "fig8b", id: "shrinks", claim: "the gain shrinks with demand: speedup at 0.2 less at 0.6", paper: "≈2.5× → ≈1×",
		rows: []string{"0.2", "0.6"}, cols: []string{"speedup"}, measure: drop, bound: ge(0.5)},
	{fig: "fig8b", id: "kubernetes-flat", claim: "Kubernetes is demand-agnostic: relative change, 0.2 to 0.6",
		rows: []string{"0.2", "0.6"}, cols: []string{"kubernetes"}, measure: spread, bound: le(0.2)},

	{fig: "fig8c", id: "flat", claim: "KubeShare is flat in variance: relative change, 0.5 to 4",
		rows: []string{"0.5", "4"}, cols: []string{"kubeshare"}, measure: spread, bound: le(0.25)},

	{fig: "fig9", id: "sooner", claim: "KubeShare finishes sooner: makespan, kubeshare / kubernetes",
		series: func(r *Fig9Result) []float64 {
			return []float64{r.Makespan[KubeShare].Seconds() / r.Makespan[Kubernetes].Seconds()}
		}, bound: lt(1)},
	{fig: "fig9", id: "kubernetes-all-gpus", claim: "Kubernetes holds all 8 GPUs: mean active mid-run",
		series: func(r *Fig9Result) []float64 { return []float64{fig9Mid(r, Kubernetes)} }, bound: ge(7.5)},
	{fig: "fig9", id: "fewer-gpus", claim: "KubeShare holds fewer: mean active mid-run, kubeshare / kubernetes",
		series: func(r *Fig9Result) []float64 { return []float64{fig9Mid(r, KubeShare) / fig9Mid(r, Kubernetes)} }, bound: lt(1)},
	{fig: "fig9", id: "busier", claim: "KubeShare's GPUs are busier: mean utilization, kubeshare / kubernetes",
		series: func(r *Fig9Result) []float64 {
			ks := r.Util[KubeShare].TimeWeightedMean(0, r.Makespan[KubeShare])
			return []float64{ks / r.Util[Kubernetes].TimeWeightedMean(0, r.Makespan[Kubernetes])}
		}, bound: gt(1)},

	{fig: "fig10", id: "warm", claim: "warm vGPU: creation overhead per concurrency", paper: "≈1.15×",
		cols: []string{"no_vgpu_overhead"}, bound: in(1.02, 1.35)},
	{fig: "fig10", id: "cold", claim: "new vGPU: creation overhead per concurrency", paper: "≈2×",
		cols: []string{"with_vgpu_overhead"}, bound: in(1.5, 2.8)},

	{fig: "fig11", id: "linear", claim: "decision time grows with N: time at 100 / at 10", paper: "O(N)",
		rows: []string{"10", "100"}, cols: []string{"mean_decision_us"}, measure: over, bound: ge(1)},
	{fig: "fig11", id: "fast", claim: "decision time at 100 sharePods, µs", paper: "≈400 ms",
		rows: []string{"100"}, cols: []string{"mean_decision_us"}, bound: le(400_000)},

	{fig: "fig12", id: "a-a", claim: "A+A slowdown", paper: "< 1.1",
		rows: []string{"A+A"}, cols: []string{"slowdown"}, bound: le(1.12), paperBound: lt(1.1)},
	{fig: "fig12", id: "b-b", claim: "B+B slowdown", paper: "≈1.5",
		rows: []string{"B+B"}, cols: []string{"slowdown"}, bound: in(1.3, 1.75)},
	// The strictly exclusive token cannot overlap one tenant's host phase
	// with the other's kernels, so B beside A lands near its queueing bound
	// (~1.25), not under the paper's 1.1; EXPERIMENTS.md explains it.
	{fig: "fig12", id: "a-b", claim: "A+B slowdown: A, B", paper: "< 1.1",
		rows: []string{"A+B"}, cols: []string{"slowdown"}, bound: le(1.3), paperBound: lt(1.1)},

	{fig: "fig13", id: "ratio0-sharing-wins", claim: "all B: sharing still wins: kubeshare / kubernetes",
		rows: []string{"0"}, cols: []string{"kubernetes", "kubeshare"}, measure: over, bound: gt(1)},
	{fig: "fig13", id: "ratio0-anti-affinity", claim: "all B: anti-affinity ≈ Kubernetes: relative distance",
		rows: []string{"0"}, cols: []string{"kubernetes", "kubeshare_anti_affinity"}, measure: spread, bound: le(0.35)},
	{fig: "fig13", id: "ratio1-both-beat", claim: "all A: both KubeShare settings beat Kubernetes: each / kubernetes",
		rows: []string{"1"}, cols: []string{"kubernetes", "kubeshare", "kubeshare_anti_affinity"}, measure: over, bound: gt(1.3)},
	{fig: "fig13", id: "ratio1-coincide", claim: "all A: the two KubeShare settings coincide: relative distance",
		rows: []string{"1"}, cols: []string{"kubeshare", "kubeshare_anti_affinity"}, measure: spread, bound: le(0.15)},

	{fig: "fig14", id: "control-no-faults", claim: "the control row delivers no faults",
		rows: []string{"0"}, cols: []string{"faults"}, bound: eq(0)},
	{fig: "fig14", id: "faults-delivered", claim: "intensity 1 delivers faults",
		rows: []string{"1"}, cols: []string{"faults"}, bound: ne(0)},
	{fig: "fig14", id: "control-available", claim: "control availability",
		rows: []string{"0"}, cols: []string{"availability"}, bound: eq(1)},
	{fig: "fig14", id: "faulted-available", claim: "availability at intensity 1",
		rows: []string{"1"}, cols: []string{"availability"}, bound: ge(0.75)},
	{fig: "fig14", id: "costs-time", claim: "faults cost time: quiesce, intensity 1 / control",
		rows: []string{"0", "1"}, cols: []string{"quiesce_s"}, measure: over, bound: ge(1)},
}

// paperFigures are the Registry entries of the paper's own evaluation.
var paperFigures = []string{"table1", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig9", "fig10", "fig11", "fig12", "fig13"}

// quick is one Registry entry's quick run at seed 1: its quickRun output and
// the table as run, host-clock cells included.
type quick struct {
	out string
	tb  *metrics.Table
}

// quicks and fig9Run hold the quick runs, each made once per test binary
// and shared by TestClaims, TestClaimsCoverRegistry and
// TestQuickRunsDeterministic (which diffs each against a second run).
var (
	quicks  = map[string]quick{}
	fig9Run *Fig9Result
)

// quickOf returns entry name's shared quick run, making it under the
// canary if it is the first to ask.
func quickOf(t *testing.T, name string) quick {
	t.Helper()
	if q, ok := quicks[name]; ok {
		return q
	}
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %s", name)
	}
	withCanary(t)
	out, tb := quickRun(t, e)
	quicks[name] = quick{out, tb}
	return quicks[name]
}

// fig9Of returns the shared Fig9Result of Figure 9's quick run at seed 1.
func fig9Of(t *testing.T) *Fig9Result {
	t.Helper()
	if fig9Run == nil {
		withCanary(t)
		res, err := Fig9(Quick, 1)
		if err != nil {
			t.Fatal(err)
		}
		fig9Run = res
	}
	return fig9Run
}

// cells returns the cells rows × cols of tb, row-major.
func cells(tb *metrics.Table, rows, cols []string) ([]float64, error) {
	idx := make([]int, len(cols))
	for i, col := range cols {
		if idx[i] = slices.Index(tb.Headers, col); idx[i] < 0 {
			return nil, fmt.Errorf("%s: no column %s", tb.Title, col)
		}
	}
	var picked [][]string
	if rows == nil {
		picked = tb.Rows
	}
	for _, key := range rows {
		n := len(picked)
		for _, row := range tb.Rows {
			if row[0] == key || len(row) > 1 && row[0]+"/"+row[1] == key {
				picked = append(picked, row)
			}
		}
		if len(picked) == n {
			return nil, fmt.Errorf("%s: no row %s", tb.Title, key)
		}
	}
	var x []float64
	for _, row := range picked {
		for _, i := range idx {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %s %s: %v", tb.Title, row[0], tb.Headers[i], err)
			}
			x = append(x, v)
		}
	}
	return x, nil
}

// measured evaluates c on its quick run.
func (c claim) measured(t *testing.T) []float64 {
	t.Helper()
	var vals []float64
	if c.series != nil {
		vals = c.series(fig9Of(t))
	} else {
		x, err := cells(quickOf(t, c.fig).tb, c.rows, c.cols)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.fig, c.id, err)
		}
		vals = x
		if c.measure != nil {
			vals = c.measure(x)
		}
	}
	if len(vals) == 0 {
		t.Fatalf("%s/%s measured nothing", c.fig, c.id)
	}
	return vals
}

// verdict is ✅ when every value is inside both bounds, ⚠️ when inside ours
// but not the paper's, ❌ when outside ours.
func (c claim) verdict(vals []float64) string {
	v := "✅"
	for _, x := range vals {
		switch {
		case !c.bound.holds(x):
			return "❌"
		case c.paperBound.set() && !c.paperBound.holds(x):
			v = "⚠️"
		}
	}
	return v
}

// hostClock reports whether c reads a column its entry takes from the host
// clock; its measured values vary run to run and are not rendered.
func (c claim) hostClock() bool {
	e, _ := Lookup(c.fig)
	for _, col := range c.cols {
		if slices.Contains(e.HostTime, col) {
			return true
		}
	}
	return false
}

// checkClaims runs each of fig's claims as a subtest.
func checkClaims(t *testing.T, fig string) {
	for _, c := range claims {
		if c.fig != fig {
			continue
		}
		t.Run(c.id, func(t *testing.T) {
			for _, v := range c.measured(t) {
				if !c.bound.holds(v) {
					t.Errorf("%s/%s (%s): measured %s, bound %s", c.fig, c.id, c.claim, num(v), c.bound)
				}
			}
		})
	}
}

// TestClaims checks every claim as TestClaims/<fig>/<id>, then renders each
// Registry entry's quick run, and the verdicts of its claims, into
// EXPERIMENTS.md's generated blocks: any difference fails until the test
// is rerun with -update, which rewrites the blocks.
func TestClaims(t *testing.T) {
	for _, e := range Registry {
		if slices.ContainsFunc(claims, func(c claim) bool { return c.fig == e.Name }) {
			t.Run(e.Name, func(t *testing.T) { checkClaims(t, e.Name) })
		}
	}
	t.Run("EXPERIMENTS.md", func(t *testing.T) {
		doc, err := os.ReadFile(experimentsDoc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := renderDoc(string(doc), registryNames(), func(name string) string { return generated(t, name) })
		if err != nil {
			t.Fatalf("EXPERIMENTS.md: %v", err)
		}
		if *updateGolden {
			if err := os.WriteFile(experimentsDoc, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if got != string(doc) {
			for _, e := range Registry {
				if block(got, e.Name) != block(string(doc), e.Name) {
					t.Errorf("EXPERIMENTS.md: the %s block differs from its quick run:\n%s", e.Name, block(got, e.Name))
				}
			}
			t.Fatal("EXPERIMENTS.md is stale: go test ./internal/experiments -run TestClaims -update")
		}
	})
}

// The tests that held these claims before the claims table keep their
// names; each runs its figure's claims.
func TestTable1FragmentationContrast(t *testing.T)              { checkClaims(t, "table1") }
func TestFig5UsageProportionalToRate(t *testing.T)              { checkClaims(t, "fig5") }
func TestFig6IsolationPhases(t *testing.T)                      { checkClaims(t, "fig6") }
func TestFig7OverheadUnderFivePercent(t *testing.T)             { checkClaims(t, "fig7") }
func TestFig8aSharingDoublesSaturatedThroughput(t *testing.T)   { checkClaims(t, "fig8a") }
func TestFig8bGainShrinksWithDemand(t *testing.T)               { checkClaims(t, "fig8b") }
func TestFig8cVarianceFlat(t *testing.T)                        { checkClaims(t, "fig8c") }
func TestFig9KubeShareFinishesSoonerWithFewerGPUs(t *testing.T) { checkClaims(t, "fig9") }
func TestFig10OverheadShape(t *testing.T)                       { checkClaims(t, "fig10") }
func TestFig11LinearAndFast(t *testing.T)                       { checkClaims(t, "fig11") }
func TestFig12InterferenceShape(t *testing.T)                   { checkClaims(t, "fig12") }
func TestFig13Crossover(t *testing.T)                           { checkClaims(t, "fig13") }
func TestFig14AvailabilitySurvivesFaults(t *testing.T)          { checkClaims(t, "fig14") }

const experimentsDoc = "../../EXPERIMENTS.md"

func beginMarker(name string) string { return "<!-- begin generated " + name + " -->\n" }
func endMarker(name string) string   { return "<!-- end generated " + name + " -->" }

// block returns the text between name's markers in doc.
func block(doc, name string) string {
	_, rest, _ := strings.Cut(doc, beginMarker(name))
	b, _, _ := strings.Cut(rest, endMarker(name))
	return b
}

// renderDoc replaces each named generated block in doc with gen's
// rendering of it.
func renderDoc(doc string, names []string, gen func(name string) string) (string, error) {
	for _, name := range names {
		i := strings.Index(doc, beginMarker(name))
		j := strings.Index(doc, endMarker(name))
		if i < 0 || j < i {
			return "", fmt.Errorf("no generated block for %s", name)
		}
		doc = doc[:i+len(beginMarker(name))] + gen(name) + doc[j:]
	}
	return doc, nil
}

// registryNames names EXPERIMENTS.md's generated blocks: one per Registry
// entry.
func registryNames() []string {
	var out []string
	for _, e := range Registry {
		out = append(out, e.Name)
	}
	return out
}

// generated renders entry name's block: its quick run as quickRun prints
// it, then a verdict table of its claims.
func generated(t *testing.T, name string) string {
	var b strings.Builder
	b.WriteString("```text\n")
	lines := strings.Split(quickOf(t, name).out, "\n")
	for i, line := range lines {
		lines[i] = strings.TrimRight(line, " ")
	}
	b.WriteString(strings.Join(lines, "\n"))
	b.WriteString("```\n")
	head := "\n| claim | paper | our bound | measured | verdict |\n|---|---|---|---|---|\n"
	for _, c := range claims {
		if c.fig != name {
			continue
		}
		b.WriteString(head)
		head = ""
		vals := c.measured(t)
		shown := make([]string, len(vals))
		for i, v := range vals {
			shown[i] = num(v)
		}
		measured := strings.Join(shown, " / ")
		if c.hostClock() {
			measured = "host clock"
		}
		paper := c.paper
		if paper == "" {
			paper = "—"
		}
		fmt.Fprintf(&b, "| %s (`%s`) | %s | %s | %s | %s |\n", c.claim, c.id, paper, c.bound, measured, c.verdict(vals))
	}
	return b.String()
}

// TestClaimsCoverRegistry checks the claims table against what it claims
// about: every paper entry has a claim, every claim reads an experiment,
// rows and columns that exist, and EXPERIMENTS.md states no verdict that a
// claim did not render.
func TestClaimsCoverRegistry(t *testing.T) {
	for _, fig := range paperFigures {
		if !slices.ContainsFunc(claims, func(c claim) bool { return c.fig == fig }) {
			t.Errorf("%s has no claim", fig)
		}
	}
	ids := map[string]bool{}
	for _, c := range claims {
		key := c.fig + "/" + c.id
		if ids[key] {
			t.Errorf("%s: duplicate claim", key)
		}
		ids[key] = true
		if _, ok := Lookup(c.fig); !ok {
			t.Errorf("%s: no experiment %s", key, c.fig)
			continue
		}
		if c.series != nil {
			if c.fig != "fig9" || c.rows != nil || c.cols != nil || c.measure != nil {
				t.Errorf("%s: a series claim reads Fig 9's result and no cells", key)
			}
			continue
		}
		if len(c.cols) == 0 {
			t.Errorf("%s: reads no column", key)
		}
		if _, err := cells(quickOf(t, c.fig).tb, c.rows, c.cols); err != nil {
			t.Errorf("%s: %v", key, err)
		}
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	prose, err := renderDoc(string(doc), registryNames(), func(string) string { return "" })
	if err != nil {
		t.Fatalf("EXPERIMENTS.md: %v", err)
	}
	for _, mark := range []string{"✅", "⚠"} {
		if strings.Contains(prose, mark) {
			t.Errorf("EXPERIMENTS.md has a %s outside a generated block", mark)
		}
	}
}
