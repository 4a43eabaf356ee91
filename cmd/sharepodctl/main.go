// Command sharepodctl is a kubectl-style shell against an in-process
// simulated cluster with KubeShare installed. It demonstrates the public
// API interactively: create sharePods and native pods, advance virtual
// time, and inspect pods, sharePods and the vGPU pool.
//
// Usage: sharepodctl [-nodes N] [-gpus N] [< script]
//
// Commands (one per line; '#' starts a comment):
//
//	create sharepod NAME -request R -limit L -mem M [-image IMG] [-steps N]
//	                      [-affinity LBL] [-anti-affinity LBL] [-exclusion LBL]
//	create pod NAME [-gpus N] [-image IMG] [-steps N]
//	delete sharepod NAME | delete pod NAME
//	get sharepods | get pods | get vgpus | get nodes | get usage
//	run DURATION            (advance virtual time, e.g. "run 30s")
//	wait NAME               (advance time until sharePod NAME terminates)
//	help | quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"kubeshare"
	"kubeshare/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 2, "worker node count")
	gpus := flag.Int("gpus", 4, "GPUs per node")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *nodes, *gpus); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run builds a cluster of nodes × gpus and executes the commands read from
// in, writing prompts and results to out, until quit or the end of in. A
// command's own error is printed and the shell goes on; run returns only
// what stops it (the cluster cannot be built, or in fails).
func run(in io.Reader, out io.Writer, nodes, gpus int) error {
	s, err := kubeshare.New(kubeshare.WithNodes(nodes), kubeshare.WithGPUsPerNode(gpus))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cluster up: %d nodes × %d GPUs, KubeShare installed. Type 'help'.\n", nodes, gpus)

	sc := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "[t=%v] > ", s.Now().Round(time.Millisecond))
		if !sc.Scan() {
			fmt.Fprintln(out)
			if err := sc.Err(); err != nil {
				return fmt.Errorf("reading commands: %w", err)
			}
			return nil
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		args := strings.Fields(line)
		switch args[0] {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Fprint(out, help)
		case "run":
			if len(args) != 2 {
				fmt.Fprintln(out, "usage: run DURATION")
				continue
			}
			d, err := time.ParseDuration(args[1])
			if err != nil {
				fmt.Fprintln(out, err)
				continue
			}
			s.RunFor(d)
		case "wait":
			if len(args) != 2 {
				fmt.Fprintln(out, "usage: wait NAME")
				continue
			}
			waitSharePod(s, out, args[1])
		case "create":
			if err := create(s, out, args[1:]); err != nil {
				fmt.Fprintln(out, err)
			}
		case "delete":
			if err := del(s, out, args[1:]); err != nil {
				fmt.Fprintln(out, err)
			}
		case "get":
			if len(args) != 2 {
				fmt.Fprintln(out, "usage: get sharepods|pods|vgpus|nodes|usage")
				continue
			}
			get(s, out, args[1])
		default:
			fmt.Fprintf(out, "unknown command %q (try 'help')\n", args[0])
		}
	}
}

// help is what the help command prints.
const help = `commands:
  create sharepod NAME -request R -limit L -mem M [-image IMG] [-steps N]
                       [-affinity LBL] [-anti-affinity LBL] [-exclusion LBL]
  create pod NAME [-gpus N] [-image IMG] [-steps N]
  delete sharepod NAME | delete pod NAME
  get sharepods | get pods | get vgpus | get nodes | get usage
  run DURATION   advance virtual time (e.g. run 30s)
  wait NAME      advance time until sharePod NAME terminates
  quit
`

// parseFlags parses "-key value" pairs from args.
func parseFlags(args []string) (map[string]string, error) {
	out := map[string]string{}
	for i := 0; i < len(args); i++ {
		if !strings.HasPrefix(args[i], "-") {
			return nil, fmt.Errorf("expected -flag, got %q", args[i])
		}
		if i+1 >= len(args) {
			return nil, fmt.Errorf("flag %s needs a value", args[i])
		}
		out[strings.TrimPrefix(args[i], "-")] = args[i+1]
		i++
	}
	return out, nil
}

func parseF(flags map[string]string, key string, def float64) (float64, error) {
	v, ok := flags[key]
	if !ok {
		return def, nil
	}
	return strconv.ParseFloat(v, 64)
}

func create(s *kubeshare.Sim, out io.Writer, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: create sharepod|pod NAME ...")
	}
	kind, name := args[0], args[1]
	flags, err := parseFlags(args[2:])
	if err != nil {
		return err
	}
	image := flags["image"]
	if image == "" {
		image = workload.TrainImage
	}
	steps := flags["steps"]
	if steps == "" {
		steps = "1000"
	}
	container := kubeshare.Container{
		Name:  "main",
		Image: image,
		Env:   map[string]string{workload.EnvSteps: steps},
	}
	switch kind {
	case "sharepod":
		req, err := parseF(flags, "request", 0.5)
		if err != nil {
			return err
		}
		lim, err := parseF(flags, "limit", req)
		if err != nil {
			return err
		}
		mem, err := parseF(flags, "mem", 0.25)
		if err != nil {
			return err
		}
		_, err = s.CreateSharePod(&kubeshare.SharePod{
			ObjectMeta: kubeshare.ObjectMeta{Name: name},
			Spec: kubeshare.SharePodSpec{
				GPURequest:   req,
				GPULimit:     lim,
				GPUMem:       mem,
				Affinity:     flags["affinity"],
				AntiAffinity: flags["anti-affinity"],
				Exclusion:    flags["exclusion"],
				Pod:          kubeshare.PodSpec{Containers: []kubeshare.Container{container}},
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "sharepod/%s created\n", name)
	case "pod":
		n := int64(1)
		if v, ok := flags["gpus"]; ok {
			n, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return err
			}
		}
		if n > 0 {
			container.Requests = kubeshare.ResourceList{kubeshare.ResourceGPU: n}
		}
		_, err = s.Pods().Create(&kubeshare.Pod{
			ObjectMeta: kubeshare.ObjectMeta{Name: name},
			Spec:       kubeshare.PodSpec{Containers: []kubeshare.Container{container}},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pod/%s created\n", name)
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	// Let the control loops react so the user immediately sees scheduling.
	s.RunFor(time.Millisecond)
	return nil
}

func del(s *kubeshare.Sim, out io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: delete sharepod|pod NAME")
	}
	var err error
	switch args[0] {
	case "sharepod":
		err = s.SharePods().Delete(args[1])
	case "pod":
		err = s.Pods().Delete(args[1])
	default:
		return fmt.Errorf("unknown kind %q", args[0])
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s/%s deleted\n", args[0], args[1])
	s.RunFor(time.Millisecond)
	return nil
}

func get(s *kubeshare.Sim, out io.Writer, kind string) {
	switch kind {
	case "sharepods":
		fmt.Fprintf(out, "%-16s %-10s %-10s %-9s %-9s %s\n", "NAME", "PHASE", "GPUID", "REQUEST", "LIMIT", "NODE")
		for _, sp := range s.SharePods().List() {
			fmt.Fprintf(out, "%-16s %-10s %-10s %-9.2f %-9.2f %s\n",
				sp.Name, sp.Status.Phase, sp.Spec.GPUID, sp.Spec.GPURequest,
				sp.Spec.GPULimit, sp.Spec.NodeName)
		}
	case "pods":
		fmt.Fprintf(out, "%-26s %-10s %-8s %s\n", "NAME", "PHASE", "NODE", "GPU")
		for _, pod := range s.Pods().List() {
			fmt.Fprintf(out, "%-26s %-10s %-8s %d\n",
				pod.Name, pod.Status.Phase, pod.Spec.NodeName,
				pod.Spec.Request(kubeshare.ResourceGPU))
		}
	case "usage":
		usage := s.Stats().Usage
		fmt.Fprintf(out, "%-16s %-10s %-10s %s\n", "NAME", "PHASE", "GPUID", "USAGE")
		for _, sp := range s.SharePods().List() {
			fmt.Fprintf(out, "%-16s %-10s %-10s %.3f\n",
				sp.Name, sp.Status.Phase, sp.Spec.GPUID, usage[sp.Name])
		}
	case "vgpus":
		fmt.Fprintf(out, "%-12s %-9s %-8s %s\n", "GPUID", "PHASE", "NODE", "UUID")
		for _, v := range s.VGPUs().List() {
			fmt.Fprintf(out, "%-12s %-9s %-8s %s\n",
				v.Spec.GPUID, v.Status.Phase, v.Spec.NodeName, v.Status.UUID)
		}
	case "nodes":
		fmt.Fprintf(out, "%-10s %-6s %s\n", "NAME", "GPUS", "READY")
		for _, n := range s.Cluster.NodeObjects() {
			fmt.Fprintf(out, "%-10s %-6d %v\n",
				n.Name, n.Status.Allocatable[kubeshare.ResourceGPU], n.Status.Ready)
		}
	default:
		fmt.Fprintf(out, "unknown resource %q\n", kind)
	}
}

func waitSharePod(s *kubeshare.Sim, out io.Writer, name string) {
	// Poll in coarse steps of virtual time; terminate on terminal phase.
	for i := 0; i < 10000; i++ {
		sp, err := s.SharePods().Get(name)
		if err != nil {
			fmt.Fprintln(out, err)
			return
		}
		if sp.Terminated() {
			fmt.Fprintf(out, "sharepod/%s %s at t=%v\n", name, sp.Status.Phase, s.Now().Round(time.Millisecond))
			return
		}
		s.RunFor(time.Second)
	}
	fmt.Fprintf(out, "sharepod/%s still not terminal\n", name)
}
