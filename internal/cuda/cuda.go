// Package cuda defines the driver API surface that applications in the
// simulated cluster program against, mirroring the CUDA driver calls the
// paper's device library intercepts (cuMemAlloc, cuLaunchKernel, …).
//
// Applications receive an API handle from their container runtime; whether
// that handle is the raw Driver or KubeShare's interposing frontend is
// decided at container setup — the moral equivalent of LD_PRELOAD deciding
// which libcuda the process loads.
package cuda

import (
	"errors"
	"fmt"
	"time"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/sim"
)

// Ptr is an opaque device memory handle.
type Ptr uint64

// ErrClosed is returned by calls on a closed API handle.
var ErrClosed = errors.New("cuda: API handle closed")

// ErrOutOfMemory mirrors CUDA_ERROR_OUT_OF_MEMORY. It wraps the device-level
// condition so errors.Is works across layers.
var ErrOutOfMemory = gpusim.ErrOutOfMemory

// DeviceInfo describes the device visible through an API handle.
type DeviceInfo struct {
	UUID        string
	MemoryBytes int64 // the capacity visible to this handle (a share, under the device library)
}

// API is the set of driver operations applications use. Blocking operations
// take the calling proc, as everywhere in the simulation.
type API interface {
	// Device describes the visible device.
	Device() DeviceInfo
	// MemAlloc reserves n bytes of device memory (cuMemAlloc).
	MemAlloc(p *sim.Proc, n int64) (Ptr, error)
	// MemFree releases a prior allocation (cuMemFree).
	MemFree(p *sim.Proc, ptr Ptr) error
	// MemcpyHtoD transfers n bytes host→device, blocking for the PCIe time.
	MemcpyHtoD(p *sim.Proc, n int64) error
	// MemcpyDtoH transfers n bytes device→host.
	MemcpyDtoH(p *sim.Proc, n int64) error
	// LaunchKernel executes a kernel requiring work of exclusive device time
	// and blocks until it completes (cuLaunchKernel + sync, the pattern the
	// device library gates on token possession).
	LaunchKernel(p *sim.Proc, work time.Duration) error
	// LaunchKernelAsync submits a kernel without waiting (stream
	// semantics); the returned event fires on completion. Outstanding
	// kernels are awaited by Synchronize.
	LaunchKernelAsync(p *sim.Proc, work time.Duration) (*sim.Event, error)
	// Synchronize blocks until every asynchronously launched kernel has
	// completed (cuCtxSynchronize).
	Synchronize(p *sim.Proc) error
	// MemUsed returns the memory currently allocated through this handle.
	MemUsed() int64
	// Close tears down the handle and frees its allocations.
	Close(p *sim.Proc) error
}

// Driver is the raw (un-interposed) implementation of API over a device
// context. It is what a native-Kubernetes pod gets.
type Driver struct {
	ctx     *gpusim.Context
	allocs  map[Ptr]int64
	next    Ptr
	pending []*sim.Event // outstanding async kernels
	closed  bool
}

var _ API = (*Driver)(nil)

// Open creates a context for owner on dev and returns the raw driver handle.
func Open(dev *gpusim.Device, owner string) *Driver {
	return &Driver{ctx: dev.OpenContext(owner), allocs: make(map[Ptr]int64), next: 0x1000}
}

// Context exposes the underlying context for accounting (device time).
func (d *Driver) Context() *gpusim.Context { return d.ctx }

// Device implements API.
func (d *Driver) Device() DeviceInfo {
	return DeviceInfo{UUID: d.ctx.Device().UUID(), MemoryBytes: d.ctx.Device().MemoryBytes()}
}

// MemAlloc implements API.
func (d *Driver) MemAlloc(p *sim.Proc, n int64) (Ptr, error) {
	if d.closed {
		return 0, ErrClosed
	}
	if n <= 0 {
		return 0, fmt.Errorf("cuda: MemAlloc(%d): non-positive size", n)
	}
	if err := d.ctx.Alloc(n); err != nil {
		return 0, err
	}
	ptr := d.next
	d.next += Ptr(n)
	d.allocs[ptr] = n
	return ptr, nil
}

// MemFree implements API.
func (d *Driver) MemFree(p *sim.Proc, ptr Ptr) error {
	if d.closed {
		return ErrClosed
	}
	n, ok := d.allocs[ptr]
	if !ok {
		return fmt.Errorf("cuda: MemFree(%#x): unknown pointer", uint64(ptr))
	}
	delete(d.allocs, ptr)
	return d.ctx.Free(n)
}

// MemcpyHtoD implements API.
func (d *Driver) MemcpyHtoD(p *sim.Proc, n int64) error {
	if d.closed {
		return ErrClosed
	}
	p.Sleep(d.ctx.Device().CopyDuration(n))
	return nil
}

// MemcpyDtoH implements API.
func (d *Driver) MemcpyDtoH(p *sim.Proc, n int64) error {
	if d.closed {
		return ErrClosed
	}
	p.Sleep(d.ctx.Device().CopyDuration(n))
	return nil
}

// LaunchKernel implements API.
func (d *Driver) LaunchKernel(p *sim.Proc, work time.Duration) error {
	if d.closed {
		return ErrClosed
	}
	return d.ctx.Launch(p, work)
}

// LaunchKernelAsync implements API.
func (d *Driver) LaunchKernelAsync(p *sim.Proc, work time.Duration) (*sim.Event, error) {
	if d.closed {
		return nil, ErrClosed
	}
	ev := d.ctx.LaunchAsync(work)
	d.pending = append(d.pending, ev)
	return ev, nil
}

// Synchronize implements API.
func (d *Driver) Synchronize(p *sim.Proc) error {
	if d.closed {
		return ErrClosed
	}
	var firstErr error
	for _, ev := range d.pending {
		if err, _ := p.Wait(ev).(error); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.pending = nil
	return firstErr
}

// MemUsed implements API.
func (d *Driver) MemUsed() int64 { return d.ctx.MemUsed() }

// Close implements API.
func (d *Driver) Close(p *sim.Proc) error {
	if d.closed {
		return nil
	}
	d.closed = true
	d.ctx.Close()
	return nil
}
