// Package workload models the paper's deep-learning jobs (Table 3): a
// TensorFlow ResNet-50 training job whose length is controlled by its step
// count, and a TF-Serving inference server whose GPU usage is proportional
// to its client request rate (Figure 5). Both are registered as container
// images and parameterized through environment variables, exactly how the
// experiment harness launches them.
package workload

import (
	"fmt"
	"strconv"
	"time"

	"kubeshare/internal/kube"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/simrand"
)

// Image names registered by RegisterImages.
const (
	// TrainImage is the ResNet-50-style training job.
	TrainImage = "workload/resnet50-train"
	// ServeImage is the TF-Serving-style inference server.
	ServeImage = "workload/tf-serving"
)

// Environment variables understood by the images.
const (
	// Training: number of steps, per-step kernel time (ms), per-step host
	// time (ms).
	EnvSteps        = "TRAIN_STEPS"
	EnvStepKernelMS = "TRAIN_STEP_KERNEL_MS"
	EnvStepHostMS   = "TRAIN_STEP_HOST_MS"
	// Serving: client request rate (req/s), per-request kernel time (ms),
	// serving duration (s) after which arrivals stop, model size (bytes),
	// RNG seed for the arrival process.
	EnvRate      = "SERVE_RATE"
	EnvReqKernel = "SERVE_REQ_KERNEL_MS"
	EnvDuration  = "SERVE_DURATION_S"
	EnvModelMB   = "SERVE_MODEL_MB"
	EnvSeed      = "SERVE_SEED"
)

// Training defaults: a 10ms step kernel at near-full duty approximates a
// V100 ResNet-50 step at small batch.
const (
	DefaultStepKernelMS = 10
	DefaultBatch        = 32
	// DefaultReqKernelMS is the inference forward-pass time (DeepLab V3 on
	// a V100 is tens of ms).
	DefaultReqKernelMS = 25
)

// Named gpu_mem profiles — the memory shares the experiment mixes request,
// deduplicated from the per-figure literals so a profile change propagates
// everywhere (and the fig18 strategy mixes reuse them by name).
const (
	// MemShareInference fits a serving model plus working space (the
	// generator's default, Table 1's sweep).
	MemShareInference = 0.1
	// MemShareSmall is a modest working set (Fig 10/11/12 tenants).
	MemShareSmall = 0.2
	// MemShareTraining covers a training job's model plus activations
	// (Fig 6's train+serve pair).
	MemShareTraining = 0.3
	// MemShareChurn is the churn-soak tenant size (Fig 16) — two fit, a
	// third does not, keeping reuse pressure on the pool.
	MemShareChurn = 0.45
	// MemShareHalf splits a device between two tenants (Fig 7/15).
	MemShareHalf = 0.5
)

func envFloat(env map[string]string, key string, def float64) float64 {
	if v, ok := env[key]; ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

func envInt(env map[string]string, key string, def int) int {
	if v, ok := env[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// RegisterImages registers both workload images on a cluster.
func RegisterImages(c *kube.Cluster) { registerImages(c) }

// registerImages is RegisterImages, returning the serve image's sources for
// the package's tests.
func registerImages(c *kube.Cluster) *serveSources {
	src := &serveSources{}
	c.Images.Register(TrainImage, trainMain)
	c.Images.Register(ServeImage, func(ctx *runtime.Ctx) error { return serveMain(ctx, src) })
	return src
}

// serveSources recycles one cluster's arrival RNGs: a serve job reseeds a
// source an earlier job on the cluster returned instead of allocating a new
// generator (4.9 KB each). The list lives only while a serve job runs, so a
// quiescent cluster pins none. Each cluster has its own: clusters run in
// parallel goroutines, and every job of one cluster runs on its one
// simulation goroutine.
type serveSources struct {
	free    []*simrand.Source
	running int // serve jobs started and not yet exited
}

// take returns a source on seed's stream.
func (s *serveSources) take(seed int64) *simrand.Source {
	n := len(s.free)
	if n == 0 {
		return simrand.New(seed)
	}
	rng := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	rng.Reseed(seed)
	return rng
}

// exit ends a serve job, returning its source (nil if it took none); the
// cluster's last running serve job drops the list.
func (s *serveSources) exit(rng *simrand.Source) {
	if rng != nil {
		s.free = append(s.free, rng)
	}
	s.running--
	if s.running == 0 {
		s.free = nil
	}
}

// trainMain is the training entrypoint: allocate model + activations, then
// run steps of (host prep, kernel).
func trainMain(ctx *runtime.Ctx) error {
	if ctx.CUDA == nil {
		return fmt.Errorf("train: no GPU visible")
	}
	steps := envInt(ctx.Env, EnvSteps, 100)
	kernel := time.Duration(envFloat(ctx.Env, EnvStepKernelMS, DefaultStepKernelMS) * float64(time.Millisecond))
	host := time.Duration(envFloat(ctx.Env, EnvStepHostMS, 0) * float64(time.Millisecond))
	// Model weights + working set: 2 GiB, the ResNet-50 regime.
	if _, err := ctx.CUDA.MemAlloc(ctx.Proc, 2<<30); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if err := ctx.CUDA.MemcpyHtoD(ctx.Proc, 100<<20); err != nil { // weights upload
		return err
	}
	for i := 0; i < steps; i++ {
		if host > 0 {
			ctx.Proc.Sleep(host)
		}
		if err := ctx.CUDA.LaunchKernel(ctx.Proc, kernel); err != nil {
			return err
		}
	}
	return nil
}

// serveMain is the inference entrypoint: load the model, then serve a
// Poisson stream of client requests for the configured duration, draining
// the backlog before exiting. Its GPU usage is the request rate times the
// per-request kernel time.
func serveMain(ctx *runtime.Ctx, src *serveSources) error {
	src.running++
	var rng *simrand.Source
	defer func() { src.exit(rng) }() // a killed or failed container's too
	if ctx.CUDA == nil {
		return fmt.Errorf("serve: no GPU visible")
	}
	rate := envFloat(ctx.Env, EnvRate, 10)
	kernel := time.Duration(envFloat(ctx.Env, EnvReqKernel, DefaultReqKernelMS) * float64(time.Millisecond))
	duration := time.Duration(envFloat(ctx.Env, EnvDuration, 60) * float64(time.Second))
	modelBytes := int64(envFloat(ctx.Env, EnvModelMB, 512)) << 20
	seed := int64(envInt(ctx.Env, EnvSeed, 1))
	if _, err := ctx.CUDA.MemAlloc(ctx.Proc, modelBytes); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := ctx.CUDA.MemcpyHtoD(ctx.Proc, modelBytes); err != nil {
		return err
	}
	rng = src.take(seed)
	p := ctx.Proc
	deadline := p.Env().Now() + duration
	if rate <= 0 {
		p.Sleep(duration)
		return nil
	}
	meanGap := time.Duration(float64(time.Second) / rate)
	// next is the virtual arrival time of the next request; the server
	// sleeps until then (idle) or is already behind (backlog) and serves
	// immediately.
	next := p.Env().Now() + rng.ExpDuration(meanGap)
	for next < deadline {
		if wait := next - p.Env().Now(); wait > 0 {
			p.Sleep(wait)
		}
		if err := ctx.CUDA.LaunchKernel(p, kernel); err != nil {
			return err
		}
		next += rng.ExpDuration(meanGap)
	}
	return nil
}
