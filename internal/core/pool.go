package core

import (
	"fmt"
	"sort"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
)

// Labels and annotations KubeShare stamps on the native objects it creates.
const (
	// LabelSharePod marks a bound pod with the sharePod it realizes.
	LabelSharePod = "kubeshare.io/sharepod"
	// LabelVGPUHolder marks the native pods that pin physical GPUs for the
	// vGPU pool.
	LabelVGPUHolder = "kubeshare.io/vgpu-holder"
	// Annotations carrying the fractional shares into the bound pod, read
	// by the node's library hook when installing the vGPU frontend.
	AnnGPURequest = "kubeshare.io/gpu_request"
	AnnGPULimit   = "kubeshare.io/gpu_limit"
	AnnGPUMem     = "kubeshare.io/gpu_mem"
	AnnGPUID      = "kubeshare.io/gpuid"
	// AnnGPUMemBytes carries the absolute memory request (stamped only when
	// the sharePod used the byte-quantity form).
	AnnGPUMemBytes = "kubeshare.io/gpu_mem_bytes"
	// AnnSharingMode carries the sharing strategy (stamped only when the
	// sharePod overrides the node default).
	AnnSharingMode = "kubeshare.io/sharing_mode"
)

// SharePods returns the typed SharePod client.
func SharePods(s *apiserver.Server) apiserver.Client[*SharePod] {
	return apiserver.NewClient[*SharePod](s, KindSharePod)
}

// VGPUs returns the typed VGPU client.
func VGPUs(s *apiserver.Server) apiserver.Client[*VGPU] {
	return apiserver.NewClient[*VGPU](s, KindVGPU)
}

// BuildPool derives Algorithm 1's pool state from the API server: one
// DeviceState per vGPU (from VGPU objects and from GPUIDs referenced by
// live sharePods that DevMgr has not yet materialized), with residuals and
// labels accumulated from the live sharePods on each device, plus the
// per-node count of physical GPUs still free for new vGPUs.
func BuildPool(srv *apiserver.Server, newID func() string) *Pool {
	return BuildPoolWithFactor(srv, newID, 1)
}

// BuildPoolWithFactor is BuildPool with a schedulable-memory factor per
// device (>1 permits over-commitment backed by the device library's swap).
func BuildPoolWithFactor(srv *apiserver.Server, newID func() string, memFactor float64) *Pool {
	if memFactor <= 0 {
		memFactor = 1
	}
	pool := &Pool{FreePhysical: map[string]int{}, NewID: newID, MemFactor: memFactor}
	byID := map[string]*DeviceState{}
	vgpuPerNode := map[string]int{}

	add := func(id, node string) *DeviceState {
		if d, ok := byID[id]; ok {
			return d
		}
		d := NewDeviceState(id, node)
		d.MemCapacity = memFactor
		d.Mem = memFactor
		byID[id] = d
		pool.Devices = append(pool.Devices, d)
		vgpuPerNode[node]++
		return d
	}
	for _, v := range VGPUs(srv).List() {
		add(v.Spec.GPUID, v.Spec.NodeName)
	}
	for _, sp := range SharePods(srv).List() {
		if !sp.Placed() || sp.Terminated() {
			continue
		}
		d := add(sp.Spec.GPUID, sp.Spec.NodeName)
		d.Place(RequestOf(sp))
	}

	// Physical free GPUs: node allocatable minus native (non-KubeShare)
	// GPU pods minus vGPUs already carved out of the node.
	nativeGPU := map[string]int{}
	for _, pod := range apiserver.Pods(srv).List() {
		if pod.Terminated() || pod.Labels[LabelVGPUHolder] != "" {
			continue
		}
		if n := pod.Spec.Requests()[api.ResourceGPU]; n > 0 && pod.Spec.NodeName != "" {
			nativeGPU[pod.Spec.NodeName] += int(n)
		}
	}
	for _, node := range apiserver.Nodes(srv).List() {
		if !node.Status.Ready {
			continue // no new vGPUs on NotReady nodes; existing ones drain via eviction
		}
		total := int(node.Status.Allocatable[api.ResourceGPU])
		free := total - nativeGPU[node.Name] - vgpuPerNode[node.Name]
		if free > 0 {
			pool.FreePhysical[node.Name] = free
		}
	}
	// Canonical device order (by ID) so pools built here and from the
	// scheduler's incremental snapshot are directly comparable.
	sort.Slice(pool.Devices, func(i, j int) bool { return pool.Devices[i].ID < pool.Devices[j].ID })
	return pool
}

// RequestOf converts a sharePod spec into an Algorithm 1 request.
func RequestOf(sp *SharePod) Request {
	return Request{
		Util:     sp.Spec.GPURequest,
		Mem:      sp.Spec.GPUMem,
		MemBytes: sp.Spec.GPUMemBytes,
		Aff:      sp.Spec.Affinity,
		Anti:     sp.Spec.AntiAffinity,
		Excl:     sp.Spec.Exclusion,
	}
}

// holderPodName names the native pod pinning a vGPU's physical GPU. gen is
// the holder incarnation: 0 for the original, >0 for replacements created by
// vGPU recovery (the old name may still exist while the corpse is cleaned
// up, so each incarnation gets a fresh name).
func holderPodName(gpuID string, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("vgpu-%s-holder", gpuID)
	}
	return fmt.Sprintf("vgpu-%s-holder-r%d", gpuID, gen)
}

// boundPodName names the pod realizing a sharePod, versioned by the
// sharePod's restart count for the same reason as holder incarnations.
func boundPodName(spName string, restarts int) string {
	if restarts == 0 {
		return fmt.Sprintf("sharepod-%s", spName)
	}
	return fmt.Sprintf("sharepod-%s-r%d", spName, restarts)
}
