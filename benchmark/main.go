// Command benchmark is the repo's measuring stick: four workloads that load
// different layers of the simulator, end-to-end metrics on the host clock
// and the virtual clock, and a traced stage that breaks the host cost down
// by layer from outside the program. See README.md in this directory.
//
//	go run ./benchmark -seed 1              # all workloads, 7 reps each
//	go run ./benchmark -seed 1 -trace       # plus the traced stage
//	go run ./benchmark -quick               # one-tenth size, 1 rep
//	go run ./benchmark -selfcheck           # two sets, compared within bounds
//	go run ./benchmark -manifest            # regenerate BENCHMARK.json
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// timedReps is how many timed repetitions of a workload a full run and each
// -selfcheck set make, each a fresh process. It is a constant, not a flag, so
// that any two runs' medians rest on the same count.
const timedReps = 7

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	quick     bool
	selfcheck bool
	manifest  bool
	// Child-only flags, set by spawn.
	child      bool
	scale      float64
	disableObs bool
	pass       string
}

// reps is the repetition count of a run that is not time-boxed: a -quick run
// is a smoke run and makes one.
func (o options) reps() int {
	if o.quick {
		return 1
	}
	return timedReps
}

// normalizeTrace lets -trace be given bare (-trace), with a separate value
// as the driver does (--trace 1), or joined (-trace=1); the flag package
// only takes the first and last forms for a boolean.
func normalizeTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := args[i]; (a == "-trace" || a == "--trace") && i+1 < len(args) &&
			(args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four): "+fmt.Sprint(workloadNames))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 0, "with -workload: keep running repetitions for this long (0: the fixed count)")
	fs.BoolVar(&o.trace, "trace", false, "run the traced stage (per-layer metrics) instead of / after the timed one")
	fs.BoolVar(&o.quick, "quick", false, "one-tenth size, 1 rep: a smoke run, not a measurement")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two untraced sets and fail if their medians differ by more than the bounds")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as this program defines it and exit")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print its result")
	fs.Float64Var(&o.scale, "scale", 1, "internal: input size factor")
	fs.BoolVar(&o.disableObs, "disable-obs", false, "internal: build the cluster without the telemetry runtime")
	fs.StringVar(&o.pass, "pass", "", "internal: the traced pass this child makes (p, s or d)")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.quick {
		o.scale = 0.1
	}
	if o.workload != "" {
		if _, err := specFor(o.workload, 1); err != nil {
			return o, err
		}
	}
	return o, nil
}

func main() {
	start := time.Now() // a child's set-up time counts from here
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		switch {
		case o.child:
			err = childMain(o, start)
		case o.manifest:
			var doc []byte
			if doc, err = manifest(); err == nil {
				_, err = os.Stdout.Write(doc)
			}
		case o.selfcheck:
			err = selfcheck(o)
		case o.workload != "" && o.seconds > 0:
			err = contractRun(o)
		default:
			err = fullRun(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// childMain is one fresh process: a timed repetition, or one traced pass.
func childMain(o options, start time.Time) error {
	co := childOpts{workload: o.workload, seed: o.seed, scale: o.scale,
		disableObs: o.disableObs, pass: o.pass}
	var r repResult
	var err error
	if o.pass != "" {
		r, err = runPass(co)
	} else {
		r, err = runUntraced(co, start)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}
