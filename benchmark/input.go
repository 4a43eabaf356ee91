package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/workload"
)

// Workload names, in the order every report lists them.
const (
	wServingMix     = "serving_mix"
	wSchedChurn     = "sched_churn"
	wColdStart      = "cold_start"
	wDurableRestart = "durable_restart"
)

var workloadNames = []string{wServingMix, wSchedChurn, wColdStart, wDurableRestart}

// spec is the fixed shape of one workload; size fields scale with -scale,
// rates do not, so a scaled-down run offers the same load for a shorter
// window.
type spec struct {
	name        string
	nodes       int
	gpusPerNode int
	jobs        int
	// meanGap is the mean inter-arrival time of the open-loop schedule
	// (full-stack workloads).
	meanGap time.Duration
	// fullStack workloads run kube.NewCluster + schedfw.Install; the other
	// runs the control plane alone.
	fullStack bool
}

func specFor(name string, scale float64) (spec, error) {
	var s spec
	switch name {
	case wServingMix:
		// The paper's testbed and Fig 8/9 job shape: 1000 × 20 s × 0.30 demand
		// over a 300 s window on 32 GPUs, 0.63 of pool capacity. Best-fit
		// packing saturates near 0.8; beyond it the backlog, and with it every
		// latency metric, swings several-fold from seed to seed.
		s = spec{name: name, nodes: 8, gpusPerNode: 4, jobs: 1000, meanGap: 300 * time.Millisecond, fullStack: true}
	case wSchedChurn:
		s = spec{name: name, nodes: 128, gpusPerNode: 8, jobs: 10000}
	case wColdStart:
		s = spec{name: name, nodes: 8, gpusPerNode: 4, jobs: 5000, meanGap: 50 * time.Millisecond, fullStack: true}
	case wDurableRestart:
		s = spec{name: name, nodes: 8, gpusPerNode: 4, jobs: 1000, meanGap: 100 * time.Millisecond, fullStack: true}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	s.jobs = int(math.Round(float64(s.jobs) * scale))
	if s.jobs < 1 {
		s.jobs = 1
	}
	if name == wSchedChurn {
		// The pool shrinks with the job count so a scaled run still churns a
		// saturated pool instead of filling an oversized one once.
		s.nodes = int(math.Max(1, math.Round(float64(s.nodes)*scale)))
	}
	return s, nil
}

// Job-shape constants shared by the generators.
const (
	serveDuration   = 20 * time.Second
	demandMean      = 0.30
	demandSigma     = workload.VarUnit * math.Sqrt2 // "variance 2" on the paper's axis
	demandLo        = 0.05
	demandHi        = 0.95
	trainSteps      = 20
	trainMemShare   = workload.MemShareTraining
	churnService    = 4 * time.Second // mean; each sharePod draws ±churnJitter
	churnJitter     = 500 * time.Millisecond
	churnWavesPerSv = 8
)

// churnClasses are the sched_churn request sizes; gpu_mem matches the
// request, so memory never binds before compute.
var churnClasses = []float64{0.25, 0.30, 0.45, 0.50}

// input is everything a workload hands the program: the sharePod objects
// and the virtual instants at which the open-loop submitter creates them.
// It is a pure function of (workload, seed, scale).
type input struct {
	spec     spec
	seed     uint64
	pods     []*core.SharePod
	arrivals []time.Duration // arrivals[i] is when pods[i] is submitted
	// service[i] is how long pods[i] holds its slice once placed
	// (sched_churn, where the benchmark's completer stands in for the node).
	service []time.Duration
	// restarts are the virtual instants of API.Restart (durable_restart).
	restarts []time.Duration
}

func generate(name string, seed uint64, scale float64) (*input, error) {
	s, err := specFor(name, scale)
	if err != nil {
		return nil, err
	}
	in := &input{spec: s, seed: seed}
	// One PCG stream per workload and purpose, so adding a draw to one never
	// shifts another.
	h := fnv.New64a()
	h.Write([]byte(name))
	stream := func(purpose uint64) *rand.Rand {
		return rand.New(rand.NewPCG(seed, h.Sum64()+purpose))
	}
	arr, dem, misc := stream(1), stream(2), stream(3)
	switch name {
	case wSchedChurn:
		// Waves paced to the pool's drain rate: a saturated pool retires
		// (GPUs / mean request) sharePods per service time.
		gpus := s.nodes * s.gpusPerNode
		meanReq := 0.0
		for _, c := range churnClasses {
			meanReq += c / float64(len(churnClasses))
		}
		wave := int(float64(gpus) / meanReq / churnWavesPerSv)
		if wave < 1 {
			wave = 1
		}
		gap := churnService / churnWavesPerSv
		var clock time.Duration
		for i := 0; i < s.jobs; i++ {
			req := churnClasses[dem.IntN(len(churnClasses))]
			in.pods = append(in.pods, &core.SharePod{
				ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%06d", i)},
				Spec: core.SharePodSpec{
					GPURequest: req, GPULimit: 1.0, GPUMem: req,
					Pod: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
				},
			})
			in.arrivals = append(in.arrivals, clock)
			in.service = append(in.service, churnService+time.Duration((2*misc.Float64()-1)*float64(churnJitter)))
			if (i+1)%wave == 0 {
				clock += gap
			}
		}
	default:
		// Poisson arrivals conditioned on their count: the normalized partial
		// sums of n+1 exponentials are the order statistics of n uniforms on
		// the window, so every seed offers the same load over the same
		// window and only the local burstiness differs.
		gaps := make([]float64, s.jobs+1)
		total := 0.0
		for i := range gaps {
			total += arr.ExpFloat64()
			gaps[i] = total
		}
		window := float64(s.jobs) * float64(s.meanGap)
		var clock time.Duration
		for i := 0; i < s.jobs; i++ {
			clock = time.Duration(gaps[i] / total * window)
			demand := truncNormal(dem, demandMean, demandSigma, demandLo, demandHi)
			in.arrivals = append(in.arrivals, clock)
			if name == wServingMix {
				in.pods = append(in.pods, servePod(i, demand, misc.Int64N(1<<30)))
			} else {
				in.pods = append(in.pods, trainPod(i, demand))
			}
		}
		if name == wDurableRestart {
			for t := restartEvery; t < clock; t += restartEvery {
				in.restarts = append(in.restarts, t)
			}
		}
	}
	return in, nil
}

// restartEvery and checkpointEvery shape durable_restart.
const (
	restartEvery    = 5 * time.Second
	checkpointEvery = 2 * time.Second
)

func truncNormal(r *rand.Rand, mean, sigma, lo, hi float64) float64 {
	for {
		if v := r.NormFloat64()*sigma + mean; v >= lo && v <= hi {
			return v
		}
	}
}

func limitFor(demand float64) float64 { return math.Min(1, demand*1.2) }

// servePod is an inference server whose request rate realizes demand as a
// busy fraction (rate × kernel time), serving for serveDuration.
func servePod(i int, demand float64, seed int64) *core.SharePod {
	kernelSec := float64(workload.DefaultReqKernelMS) / 1000
	return &core.SharePod{
		ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("job-%05d", i)},
		Spec: core.SharePodSpec{
			GPURequest: demand, GPULimit: limitFor(demand), GPUMem: workload.MemShareInference,
			Pod: api.PodSpec{Containers: []api.Container{{
				Name: "serve", Image: workload.ServeImage,
				Env: map[string]string{
					workload.EnvRate:      strconv.FormatFloat(demand/kernelSec, 'f', 4, 64),
					workload.EnvReqKernel: strconv.Itoa(workload.DefaultReqKernelMS),
					workload.EnvDuration:  strconv.FormatFloat(serveDuration.Seconds(), 'f', 3, 64),
					workload.EnvModelMB:   "512",
					workload.EnvSeed:      strconv.FormatInt(seed, 10),
				},
			}}},
		},
	}
}

// trainPod is a short training job: trainSteps kernels of the default step
// time, back to back.
func trainPod(i int, demand float64) *core.SharePod {
	return &core.SharePod{
		ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("job-%05d", i)},
		Spec: core.SharePodSpec{
			GPURequest: demand, GPULimit: limitFor(demand), GPUMem: trainMemShare,
			Pod: api.PodSpec{Containers: []api.Container{{
				Name: "train", Image: workload.TrainImage,
				Env: map[string]string{
					workload.EnvSteps:        strconv.Itoa(trainSteps),
					workload.EnvStepKernelMS: strconv.Itoa(workload.DefaultStepKernelMS),
				},
			}}},
		},
	}
}
