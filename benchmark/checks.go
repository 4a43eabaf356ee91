package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"
)

// placement is one sharePod's outcome as the output checks see it.
type placement struct {
	Name      string
	Node      string
	GPUID     string
	Created   time.Duration
	Scheduled time.Duration
	Started   time.Duration // RunningTime, or ScheduledTime where no pod runs
	Finish    time.Duration
	Request   float64
	Mem       float64
	Succeeded bool
	Restarts  int
}

// outcome is what the checks conclude from a run's placements.
type outcome struct {
	failed   int      // sharePods not placed-and-succeeded exactly once
	problems []string // every violated check, for the report
	digest   string
	makespan time.Duration
	startLat []float64 // Started − Created per sharePod, virtual ms
}

// maxProblems bounds the report; the count of failed ops is exact regardless.
const maxProblems = 20

// shareEpsilon absorbs float summation error in the over-commit sums.
const shareEpsilon = 1e-9

// checkPlacements verifies that every named sharePod was placed exactly once
// and succeeded, and that no vGPU ever held more than a whole device of
// compute or memory, then digests the placements.
func checkPlacements(names []string, recs []placement) outcome {
	var out outcome
	problem := func(format string, args ...any) {
		if len(out.problems) < maxProblems {
			out.problems = append(out.problems, fmt.Sprintf(format, args...))
		}
	}
	seen := make(map[string]int, len(recs))
	for _, r := range recs {
		seen[r.Name]++
	}
	for _, n := range names {
		if seen[n] == 0 {
			out.failed++
			problem("%s: submitted but absent at quiescence", n)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	type edge struct {
		at       time.Duration
		req, mem float64
	}
	byGPU := map[string][]edge{}
	h := fnv.New64a()
	for _, r := range recs {
		bad := ""
		switch {
		case seen[r.Name] > 1:
			bad = fmt.Sprintf("placed %d times", seen[r.Name])
		case r.GPUID == "" || r.Node == "":
			bad = "never placed"
		case r.Restarts != 0:
			bad = fmt.Sprintf("re-placed %d times", r.Restarts)
		case !r.Succeeded:
			bad = "not Succeeded at quiescence"
		case r.Finish < r.Scheduled:
			bad = "finished before it was scheduled"
		}
		if bad != "" {
			out.failed++
			problem("%s: %s", r.Name, bad)
		}
		fmt.Fprintf(h, "%s|%s|%s|%d|%d\n", r.Name, r.Node, r.GPUID, r.Scheduled, r.Finish)
		if r.GPUID != "" {
			key := r.Node + "/" + r.GPUID
			byGPU[key] = append(byGPU[key],
				edge{r.Scheduled, r.Request, r.Mem}, edge{r.Finish, -r.Request, -r.Mem})
		}
		if r.Finish > out.makespan {
			out.makespan = r.Finish
		}
		out.startLat = append(out.startLat, float64(r.Started-r.Created)/float64(time.Millisecond))
	}
	out.digest = fmt.Sprintf("%016x", h.Sum64())

	// A tenant holds its share over [Scheduled, Finish); at equal instants
	// releases apply before grants.
	gpus := make([]string, 0, len(byGPU))
	for k := range byGPU {
		gpus = append(gpus, k)
	}
	sort.Strings(gpus)
	for _, k := range gpus {
		es := byGPU[k]
		sort.SliceStable(es, func(i, j int) bool {
			if es[i].at != es[j].at {
				return es[i].at < es[j].at
			}
			return es[i].req < es[j].req
		})
		var req, mem float64
		for _, e := range es {
			req += e.req
			mem += e.mem
			if req > 1+shareEpsilon || mem > 1+shareEpsilon {
				out.failed++
				problem("vGPU %s over-committed at %v: request %.3f, mem %.3f", k, e.at, req, mem)
				break
			}
		}
	}
	return out
}
