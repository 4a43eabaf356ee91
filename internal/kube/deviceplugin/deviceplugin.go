// Package deviceplugin implements the Kubernetes device plugin framework
// (§2.2 of the paper): vendors register plugins with the kubelet, the
// kubelet advertises their devices as opaque integer-counted extended
// resources, and at pod admission it picks device instances and asks the
// plugin to Allocate them.
//
// Two deliberate properties of the real framework are preserved because
// KubeShare's whole design responds to them: allocation requests carry only
// a count (no fractional amounts, no identity of the requesting pod's
// wishes), and the *kubelet*, not the scheduler, decides which physical
// device a pod gets (implicit late binding, §3.2).
package deviceplugin

import (
	"fmt"
	"sort"
	"strings"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/api"
)

// Device is one plugin-managed device instance.
type Device struct {
	ID      string
	Healthy bool
}

// AllocateResponse carries the container runtime settings the kubelet
// injects into containers using the device.
type AllocateResponse struct {
	Env map[string]string
}

// Plugin is the vendor-implemented side of the framework.
type Plugin interface {
	// ResourceName returns the extended resource the plugin manages, e.g.
	// "nvidia.com/gpu".
	ResourceName() string
	// ListDevices enumerates device instances (the ListAndWatch analogue;
	// the simulated devices are static, so a single list suffices).
	ListDevices() []Device
	// Allocate prepares the given device IDs for attachment and returns the
	// container settings.
	Allocate(ids []string) (AllocateResponse, error)
}

// Manager is the kubelet's plugin registry and allocation bookkeeper.
type Manager struct {
	plugins map[string]*pluginState
}

type pluginState struct {
	plugin Plugin
	// free and inUse partition healthy device IDs.
	free  []string
	inUse map[string][]string // consumer (pod UID) → device IDs
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{plugins: make(map[string]*pluginState)}
}

// Register installs a plugin (the framework's registration phase). Device
// IDs are sorted for deterministic allocation order.
func (m *Manager) Register(p Plugin) error {
	name := p.ResourceName()
	if _, ok := m.plugins[name]; ok {
		return fmt.Errorf("deviceplugin: resource %q already registered", name)
	}
	st := &pluginState{plugin: p, inUse: make(map[string][]string)}
	for _, d := range p.ListDevices() {
		if d.Healthy {
			st.free = append(st.free, d.ID)
		}
	}
	sort.Strings(st.free)
	m.plugins[name] = st
	return nil
}

// Capacity returns the advertised extended-resource counts, which the
// kubelet merges into the node's allocatable resources.
func (m *Manager) Capacity() api.ResourceList {
	out := api.ResourceList{}
	for name, st := range m.plugins {
		out[name] = int64(len(st.free))
		for _, ids := range st.inUse {
			out[name] += int64(len(ids))
		}
	}
	return out
}

// Allocate reserves n devices of the named resource for consumer and
// returns the merged container settings. Mirroring the framework, the
// manager (not the caller) picks which instances — first-free in sorted
// order.
func (m *Manager) Allocate(consumer, resource string, n int64) (AllocateResponse, error) {
	st, ok := m.plugins[resource]
	if !ok {
		return AllocateResponse{}, fmt.Errorf("deviceplugin: unknown resource %q", resource)
	}
	if n <= 0 {
		return AllocateResponse{}, fmt.Errorf("deviceplugin: allocate %d of %q", n, resource)
	}
	if int64(len(st.free)) < n {
		return AllocateResponse{}, fmt.Errorf("deviceplugin: %q: want %d devices, %d free", resource, n, len(st.free))
	}
	ids := append([]string(nil), st.free[:n]...)
	st.free = st.free[n:]
	resp, err := st.plugin.Allocate(ids)
	if err != nil {
		// Return the instances to the pool on vendor failure.
		st.free = append(ids, st.free...)
		sort.Strings(st.free)
		return AllocateResponse{}, fmt.Errorf("deviceplugin: vendor allocate: %w", err)
	}
	st.inUse[consumer] = append(st.inUse[consumer], ids...)
	return resp, nil
}

// Free returns every device held by consumer across all plugins.
func (m *Manager) Free(consumer string) {
	for _, st := range m.plugins {
		if ids, ok := st.inUse[consumer]; ok {
			st.free = append(st.free, ids...)
			sort.Strings(st.free)
			delete(st.inUse, consumer)
		}
	}
}

// EnvVisibleDevices is the environment variable the NVIDIA stack reads to
// decide device visibility inside a container.
const EnvVisibleDevices = "NVIDIA_VISIBLE_DEVICES"

// NvidiaPlugin exposes a node's simulated GPUs through the framework, as
// the NVIDIA k8s-device-plugin does: device IDs are the GPU UUIDs and
// Allocate returns NVIDIA_VISIBLE_DEVICES.
type NvidiaPlugin struct {
	devices []*gpusim.Device
}

// NewNvidiaPlugin wraps the node's GPUs.
func NewNvidiaPlugin(devices []*gpusim.Device) *NvidiaPlugin {
	return &NvidiaPlugin{devices: devices}
}

// ResourceName implements Plugin.
func (n *NvidiaPlugin) ResourceName() string { return api.ResourceGPU }

// ListDevices implements Plugin.
func (n *NvidiaPlugin) ListDevices() []Device {
	out := make([]Device, len(n.devices))
	for i, d := range n.devices {
		out[i] = Device{ID: d.UUID(), Healthy: true}
	}
	return out
}

// Allocate implements Plugin.
func (n *NvidiaPlugin) Allocate(ids []string) (AllocateResponse, error) {
	known := map[string]bool{}
	for _, d := range n.devices {
		known[d.UUID()] = true
	}
	for _, id := range ids {
		if !known[id] {
			return AllocateResponse{}, fmt.Errorf("nvidia plugin: unknown device %q", id)
		}
	}
	return AllocateResponse{Env: map[string]string{EnvVisibleDevices: strings.Join(ids, ",")}}, nil
}
