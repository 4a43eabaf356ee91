// Package runtime is the container runtime ("Docker") of the simulated
// cluster. It starts containers as simulation processes, injects their
// environment, and resolves the CUDA library handle the application sees.
//
// The CUDA resolution step is the LD_PRELOAD hook point: by default a
// container with NVIDIA_VISIBLE_DEVICES gets the raw driver; KubeShare's
// device manager installs a LibraryHook on the runtime that wraps the
// driver with the vGPU frontend for the containers it manages.
package runtime

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

// Entrypoint is a container's main function. Returning nil exits 0; an
// error marks the container failed. The entrypoint must do all blocking
// through ctx.Proc.
type Entrypoint func(ctx *Ctx) error

// Ctx is the execution context handed to a container entrypoint.
type Ctx struct {
	// Proc is the container's simulation process.
	Proc *sim.Proc
	// Pod and Container are read-only: the API server's shared snapshot of
	// the pod as admitted, and one of its containers.
	Pod       *api.Pod
	Container api.Container
	// Env is the merged environment (spec env + device allocations).
	Env map[string]string
	// CUDA is the device library handle, nil when no device is visible.
	// Which implementation backs it is the runtime's LibraryHook decision.
	CUDA cuda.API
}

// ImageRegistry maps image names to entrypoints — the stand-in for a
// container image store.
type ImageRegistry struct {
	entries map[string]Entrypoint
}

// NewImageRegistry returns an empty registry.
func NewImageRegistry() *ImageRegistry {
	return &ImageRegistry{entries: make(map[string]Entrypoint)}
}

// Register binds an image name to an entrypoint, replacing any previous
// binding (retagging).
func (r *ImageRegistry) Register(image string, entry Entrypoint) {
	r.entries[image] = entry
}

// Lookup resolves an image name.
func (r *ImageRegistry) Lookup(image string) (Entrypoint, bool) {
	e, ok := r.entries[image]
	return e, ok
}

// LibraryHook lets an agent substitute the CUDA library a container loads.
// base is the raw driver for the container's first visible device (nil when
// none). Returning nil, nil falls through to base; an error fails the
// container (the library refused to load) and base is closed.
type LibraryHook func(pod *api.Pod, c api.Container, base cuda.API) (cuda.API, error)

// State is a container's lifecycle state.
type State string

// Container states.
const (
	StateCreating State = "Creating"
	StateRunning  State = "Running"
	StateExited   State = "Exited"
)

// startLatency models container creation (filesystem, cgroups, runtime
// setup). The paper's Figure 10 dashed line puts whole-pod creation at
// roughly a second; container start is its dominant term.
const startLatency = 800 * time.Millisecond

// Runtime starts and stops containers on one node.
type Runtime struct {
	env     *sim.Env
	images  *ImageRegistry
	devices map[string]*gpusim.Device // UUID → device
	hooks   []LibraryHook
	nextID  int
}

// New returns a runtime for a node holding the given GPUs.
func New(env *sim.Env, images *ImageRegistry, devices []*gpusim.Device) *Runtime {
	byUUID := make(map[string]*gpusim.Device, len(devices))
	for _, d := range devices {
		byUUID[d.UUID()] = d
	}
	return &Runtime{env: env, images: images, devices: byUUID}
}

// AddLibraryHook installs a CUDA library interposition hook. Hooks are
// consulted last-registered-first; the first non-nil result wins.
func (r *Runtime) AddLibraryHook(h LibraryHook) { r.hooks = append(r.hooks, h) }

// Handle tracks one running container.
type Handle struct {
	ID      string
	state   State
	exitErr error
	proc    *sim.Proc
	started *sim.Event
	done    *sim.Event
}

// Started fires when the entrypoint begins executing.
func (h *Handle) Started() *sim.Event { return h.started }

// Done fires when the container exits (normally or killed).
func (h *Handle) Done() *sim.Event { return h.done }

// errContainerKilled marks externally stopped containers.
var errContainerKilled = errors.New("runtime: container killed")

// Start launches a container for pod/c with the merged environment extraEnv
// (device allocations) layered over the spec env. The returned handle's
// Done event fires on exit.
func (r *Runtime) Start(pod *api.Pod, c api.Container, extraEnv map[string]string) (*Handle, error) {
	entry, ok := r.images.Lookup(c.Image)
	if !ok {
		return nil, fmt.Errorf("runtime: image %q not found", c.Image)
	}
	env := map[string]string{}
	for k, v := range c.Env {
		env[k] = v
	}
	for k, v := range extraEnv {
		env[k] = v
	}
	r.nextID++
	h := &Handle{
		ID:      fmt.Sprintf("ctr-%s-%s-%d", pod.Name, c.Name, r.nextID),
		state:   StateCreating,
		started: sim.NewEvent(r.env),
		done:    sim.NewEvent(r.env),
	}
	h.proc = r.env.Go(h.ID, func(p *sim.Proc) {
		// The library handle lives in the proc body, not on the Handle: a
		// kubelet keeps the Handle until the pod object is deleted, and the
		// closed library (contexts, allocations) must not stay with it.
		var capi cuda.API
		defer func() {
			h.state = StateExited
			if capi != nil {
				capi.Close(p)
			}
			if p.Killed() && h.exitErr == nil {
				h.exitErr = errContainerKilled
			}
			// A container killed before its entrypoint ran never fired
			// Started; release those waiters too (Trigger is idempotent).
			h.started.Trigger(h.exitErr)
			h.done.Trigger(h.exitErr)
		}()
		p.Sleep(startLatency)
		var err error
		if capi, err = r.resolveCUDA(p, pod, c, env, h.ID); err != nil {
			h.exitErr = err
			return
		}
		h.state = StateRunning
		h.started.Trigger(nil)
		h.exitErr = entry(&Ctx{Proc: p, Pod: pod, Container: c, Env: env, CUDA: capi})
	})
	return h, nil
}

// resolveCUDA builds the library handle a container loads: nil without
// visible devices, the raw driver otherwise, possibly replaced by a hook.
func (r *Runtime) resolveCUDA(p *sim.Proc, pod *api.Pod, c api.Container, env map[string]string, owner string) (cuda.API, error) {
	visible := env["NVIDIA_VISIBLE_DEVICES"]
	var base cuda.API
	if visible != "" && visible != "none" {
		uuid := strings.Split(visible, ",")[0]
		dev, ok := r.devices[uuid]
		if !ok {
			return nil, fmt.Errorf("runtime: NVIDIA_VISIBLE_DEVICES names unknown device %q", uuid)
		}
		base = cuda.Open(dev, owner)
	}
	for i := len(r.hooks) - 1; i >= 0; i-- {
		api, err := r.hooks[i](pod, c, base)
		if err != nil {
			if base != nil {
				base.Close(p)
			}
			return nil, err
		}
		if api != nil {
			return api, nil
		}
	}
	return base, nil
}

// Stop kills a container; its Done event fires with a kill error. Stopping
// an exited container is a no-op.
func (r *Runtime) Stop(h *Handle) {
	if h.state == StateExited {
		return
	}
	h.proc.Kill(errContainerKilled)
}
