package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// layers are this repo's packages as the per-layer budget names them, plus
// three buckets for stacks with no repo frame.
var layers = []string{
	"sim", "simrand", "backoff", "store", "apiserver", "api", "scheduler",
	"kubelet", "runtime", "deviceplugin", "controller", "core", "schedfw",
	"devlib", "sharing", "gpusim", "cuda", "obs", "metrics", "workload",
	"go_gc", "go_sched", "go_other",
}

// inclLayers are the layers whose inclusive share (layer anywhere on the
// stack) is reported; the shares overlap and may sum past 1.
var inclLayers = []string{
	"sim", "store", "apiserver", "core", "schedfw", "devlib", "sharing",
	"gpusim", "obs", "kubelet",
}

var isLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

const internalPrefix = "kubeshare/internal/"

// layerOf maps one stack frame (a fully qualified function name) to its
// layer, or "" when the frame is not one of the repo's layers. Sub-packages
// fold into their layer: core/schedfw/* → schedfw, devlib/sharing → sharing,
// kube/<x> → <x>, obs/* → obs.
func layerOf(frame string) string {
	if i := strings.IndexByte(frame, '['); i >= 0 {
		frame = frame[:i] // type arguments may hold package paths of their own
	}
	if !strings.HasPrefix(frame, internalPrefix) {
		return ""
	}
	rel := frame[len(internalPrefix):]
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(rel, '/')
	dot := strings.IndexByte(rel[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	segs := strings.Split(rel[:slash+1+dot], "/")
	layer := segs[0]
	switch {
	case layer == "core" && len(segs) > 1 && segs[1] == "schedfw":
		layer = "schedfw"
	case layer == "devlib" && len(segs) > 1 && segs[1] == "sharing":
		layer = "sharing"
	case layer == "kube" && len(segs) > 1:
		layer = segs[1]
	}
	if !isLayer[layer] {
		return "" // e.g. kube (cluster assembly), kube/labels: charge the caller
	}
	return layer
}

// Runtime frames that mark a stack with no repo frame as collector or
// scheduler work.
var (
	gcMarks = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.gcMark", "runtime.gcStart", "runtime.gcSweep", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.scanobject", "runtime.markroot",
		"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.gcResetMarkState",
		"runtime.(*gcWork)", "runtime.(*gcControllerState)",
	}
	schedMarks = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.mcall", "runtime.stopm", "runtime.startm", "runtime.wakep",
		"runtime.futex", "runtime.notesleep", "runtime.notewakeup",
		"runtime.sysmon", "runtime.usleep", "runtime.osyield", "runtime.mstart",
		"runtime.goschedImpl", "runtime.resetspinning", "runtime.execute",
	}
)

func hasMark(frames, marks []string) bool {
	for _, f := range frames {
		for _, m := range marks {
			if strings.HasPrefix(f, m) {
				return true
			}
		}
	}
	return false
}

// selfLayer attributes one sample to the layer of its leaf-most repo frame,
// so runtime work done on a layer's behalf (allocation, map access, a GC
// assist inside mallocgc) is charged to the layer that called it. Stacks
// with no repo frame are the runtime's own: collector, scheduler, or other.
func selfLayer(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	switch {
	case hasMark(frames, gcMarks):
		return "go_gc"
	case hasMark(frames, schedMarks):
		return "go_sched"
	}
	return "go_other"
}

// stackSample is one entry of `go tool pprof -traces`: a sample count and
// its stack, leaf first.
type stackSample struct {
	count  int64
	frames []string
}

// parseTraces reads the text `go tool pprof -traces -sample_index=samples`
// prints: a header, then blocks separated by dashed lines, each block one
// stack whose first line carries the sample count.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	inBody := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(text, "-----------+") {
			inBody, cur = true, nil
			continue
		}
		fields := strings.Fields(text)
		if !inBody || len(fields) == 0 {
			continue
		}
		if cur == nil {
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces line %d: want \"<count> <frame>\", got %q", line, text)
			}
			out = append(out, stackSample{count: n})
			cur = &out[len(out)-1]
			fields = fields[1:]
		}
		// A frame is its first field; "(inline)" and the like follow it.
		cur.frames = append(cur.frames, fields[0])
	}
	return out, sc.Err()
}

// attribute counts samples by self layer and by every layer on the stack.
func attribute(samples []stackSample) *profileCounts {
	c := &profileCounts{Self: map[string]int64{}, Incl: map[string]int64{}}
	for _, s := range samples {
		c.Total += s.count
		c.Self[selfLayer(s.frames)] += s.count
		seen := map[string]bool{}
		for _, f := range s.frames {
			if l := layerOf(f); l != "" && !seen[l] {
				seen[l] = true
				c.Incl[l] += s.count
			}
		}
	}
	return c
}

// shares turns counts into the reported metrics: <L>.cpu_self_frac for every
// layer and <L>.cpu_incl_frac for the inclusive set.
func (c *profileCounts) shares(m map[string]float64) {
	frac := func(n int64) float64 {
		if c.Total == 0 {
			return 0
		}
		return float64(n) / float64(c.Total)
	}
	for _, l := range layers {
		m[l+".cpu_self_frac"] = frac(c.Self[l])
	}
	for _, l := range inclLayers {
		m[l+".cpu_incl_frac"] = frac(c.Incl[l])
	}
	m["profile.samples"] = float64(c.Total)
}
