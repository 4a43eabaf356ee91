// Command benchgate gates the work the repo benchmark does, not its time.
//
// With no flags it is the work ratchet: for each workload in work.json it
// runs `bash benchmark/run.sh --workload W --seed 1 --seconds 1 --trace T`
// with T=0 and T=1. The untraced mallocs_k and alloc_mb fail more than band
// above work.json; more than band below, it prints the value to ratchet to.
// Every other entry is a traced count-unit metric (all but profile.samples)
// and must equal the file. A run reporting "correct": false fails.
//
// Over ten ratchet runs of one unchanged tree (2 CPUs, go1.24) every count
// repeated, mallocs_k spread at most 0.007 % and alloc_mb 0.04 %. Only
// sched_churn's alloc_mb moved more: 59.22–59.72 MB (0.84 %) at equal
// mallocs_k, in 0.125 MB steps, as a buffer grows or not with goroutine
// timing. It has its own band.
//
// With -base REF -workload W [-seed N] it runs pairs alternating pairs of
// run.sh on a `git archive` of REF and on the working tree, and prints each
// end-to-end metric's medians, quartiles, change and pairs won: the only
// place wall-clock time is read.
//
//	go run ./tools/benchgate
//	go run ./tools/benchgate -base HEAD~1 -workload cold_start -seed 5
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// band is how far mallocs_k or alloc_mb may move from work.json, over twice
// the spread above; schedChurnAllocBand is sched_churn alloc_mb's own.
const band, schedChurnAllocBand = 0.005, 0.02

// pairs and pairSeconds are the paired mode's pair count and run length.
const pairs, pairSeconds = 10, "3"

//go:embed work.json
var workJSON []byte

// result is run.sh's last line of output (its keys match case-insensitively).
type result struct {
	Correct bool
	Metrics map[string]metric
}

type metric struct {
	Value float64
	Unit  string
}

func decode(out []byte) (r result, err error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	err = json.Unmarshal([]byte(lines[len(lines)-1]), &r)
	return r, err
}

// run runs benchmark/run.sh in dir. A run whose checks fail exits non-zero
// but still reports; one that does not report reads as failed checks.
func run(dir string, args ...string) result {
	cmd := exec.Command("bash", append([]string{"benchmark/run.sh"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	r, derr := decode(out)
	if derr != nil {
		fmt.Fprintf(os.Stderr, "benchgate: run.sh %s in %s: %v (%v)\n", strings.Join(args, " "), dir, derr, err)
		return result{}
	}
	return r
}

// gate holds each workload's untraced and traced results to want, writes
// one line per finding to w, and returns the number of failures.
func gate(want map[string]map[string]float64, got map[string][2]result, w io.Writer) int {
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(w, "benchgate: FAIL "+format+"\n", args...)
	}
	for _, wl := range slices.Sorted(maps.Keys(want)) {
		rs, ok := got[wl]
		if !ok {
			fail("%s: no result from run.sh", wl)
			continue
		}
		for trace, r := range rs {
			if !r.Correct {
				fail("%s: the --trace %d run reported \"correct\": false", wl, trace)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(want[wl])) {
			file, r, b := want[wl][name], rs[1], 0.0
			if name == "mallocs_k" || name == "alloc_mb" {
				r, b = rs[0], band
				if wl+" "+name == "sched_churn alloc_mb" {
					b = schedChurnAllocBand
				}
			}
			m, ok := r.Metrics[name]
			switch change := m.Value/file - 1; {
			case !ok:
				fail("%s %s: not reported by the run", wl, name)
			case b == 0 && m.Value != file:
				fail("%s %s = %g, work.json has %g", wl, name, m.Value, file)
			case b > 0 && change > b:
				fail("%s %s = %.3f, %+.2f %% above work.json's %g (band %g %%)", wl, name, m.Value, 100*change, file, 100*b)
			case b > 0 && change < -b:
				fmt.Fprintf(w, "benchgate: ratchet %s %s to %.3f, %+.2f %% from work.json's %g\n", wl, name, m.Value, 100*change, file)
			}
		}
	}
	return bad
}

func ratchet() error {
	var want map[string]map[string]float64
	if err := json.Unmarshal(workJSON, &want); err != nil {
		return fmt.Errorf("work.json: %w", err)
	}
	got := map[string][2]result{}
	for wl := range want {
		args := []string{"--workload", wl, "--seed", "1", "--seconds", "1", "--trace"}
		got[wl] = [2]result{run(".", append(args, "0")...), run(".", append(args, "1")...)}
	}
	if bad := gate(want, got, os.Stdout); bad > 0 {
		return fmt.Errorf("%d finding(s) against tools/benchgate/work.json", bad)
	}
	fmt.Println("benchgate: every workload's work matches tools/benchgate/work.json")
	return nil
}

// quartiles returns xs's quartiles, interpolated as benchmark/ does.
func quartiles(xs []float64) (q [3]float64) {
	slices.Sort(xs)
	for i := range q {
		pos := float64(i+1) / 4 * float64(len(xs)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		q[i] = xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
	}
	return q
}

// paired runs the pairs, the first side alternating so that drift charges
// both alike. Every end-to-end metric is lower-is-better (BENCHMARK.json).
func paired(ref, workload, seed string) error {
	if ref == "" || workload == "" {
		return fmt.Errorf("the paired mode needs -base and -workload")
	}
	dir, err := os.MkdirTemp("", "benchgate-base-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	archive := exec.Command("bash", "-c", `set -o pipefail; git archive "$1" | tar -x -C "$2"`, "bash", ref, dir)
	archive.Stderr = os.Stderr
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	trees := [2]string{dir, "."}
	var runs [2][]result // the base's, then the working tree's
	for i := 0; i < 2*pairs; i++ {
		s := (i + i/2) % 2 // base, tree, tree, base, base, tree, ...
		r := run(trees[s], "--workload", workload, "--seed", seed, "--seconds", pairSeconds, "--trace", "0")
		if !r.Correct {
			return fmt.Errorf("a run in %s reported \"correct\": false", trees[s])
		}
		runs[s] = append(runs[s], r)
	}
	fmt.Printf("%s, seed %s, %d pairs of --seconds %s runs: median [q1, q3] of %s -> the working tree, change, pairs won\n",
		workload, seed, pairs, pairSeconds, ref)
	for _, name := range slices.Sorted(maps.Keys(runs[0][0].Metrics)) {
		var v [2][]float64
		wins := 0
		for i := 0; i < pairs; i++ {
			b, t := runs[0][i].Metrics[name].Value, runs[1][i].Metrics[name].Value
			v[0], v[1] = append(v[0], b), append(v[1], t)
			if t < b {
				wins++
			}
		}
		bq, tq := quartiles(v[0]), quartiles(v[1])
		fmt.Printf("%-18s %.6g [%.6g, %.6g] -> %.6g [%.6g, %.6g] %s  %+.2f %%  %d/%d\n", name,
			bq[1], bq[0], bq[2], tq[1], tq[0], tq[2], runs[0][0].Metrics[name].Unit, 100*(tq[1]/bq[1]-1), wins, pairs)
	}
	return nil
}

func main() {
	base := flag.String("base", "", "paired mode: the git ref to compare the working tree with")
	workload := flag.String("workload", "", "paired mode: the workload to run")
	seed := flag.String("seed", "1", "paired mode: the seed")
	flag.Parse()
	mode := ratchet
	if flag.NFlag() > 0 {
		mode = func() error { return paired(*base, *workload, *seed) }
	}
	if err := mode(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
