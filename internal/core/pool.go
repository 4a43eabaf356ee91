package core

import (
	"sort"
	"strconv"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
)

// Labels KubeShare stamps on the native objects it creates.
const (
	// LabelSharePod marks a bound pod with the sharePod it realizes.
	LabelSharePod = "kubeshare.io/sharepod"
	// LabelVGPUHolder marks the native pods that pin physical GPUs for the
	// vGPU pool.
	LabelVGPUHolder = "kubeshare.io/vgpu-holder"
)

// SharePods returns the typed SharePod client.
func SharePods(s *apiserver.Server) apiserver.Client[*SharePod] {
	return apiserver.NewClient[*SharePod](s, KindSharePod)
}

// VGPUs returns the typed VGPU client.
func VGPUs(s *apiserver.Server) apiserver.Client[*VGPU] {
	return apiserver.NewClient[*VGPU](s, KindVGPU)
}

// BuildPool derives Algorithm 1's pool state from the API server by a full
// relist: one DeviceState per vGPU (from VGPU objects and from GPUIDs
// referenced by live sharePods that DevMgr has not yet materialized), with
// residuals and labels accumulated from the live sharePods on each device,
// plus the per-node count of physical GPUs still free for new vGPUs. The
// scheduler never decides on it: VerifySnapshot holds the snapshot's pool
// against it.
func BuildPool(srv *apiserver.Server) *Pool {
	pool := &Pool{FreePhysical: map[string]int{}}
	byID := map[string]*DeviceState{}
	vgpuPerNode := map[string]int{}

	add := func(id, node string) *DeviceState {
		if d, ok := byID[id]; ok {
			return d
		}
		d := NewDeviceState(id, node)
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
		if n := pod.Spec.Request(api.ResourceGPU); n > 0 && pod.Spec.NodeName != "" {
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

// holderPodName names the native pod pinning a vGPU's physical GPU after the
// vGPU (vgpu-0001-holder). gen is the holder incarnation: 0 for the
// original, >0 for replacements created by vGPU recovery (the old name may
// still exist while the corpse is cleaned up, so each incarnation gets a
// fresh name).
func holderPodName(gpuID string, gen int) string {
	if gen == 0 {
		return gpuID + "-holder"
	}
	return gpuID + "-holder-r" + strconv.Itoa(gen)
}

// boundPodName names the pod realizing a sharePod, versioned by the
// sharePod's restart count for the same reason as holder incarnations.
func boundPodName(spName string, restarts int) string {
	if restarts == 0 {
		return "sharepod-" + spName
	}
	return "sharepod-" + spName + "-r" + strconv.Itoa(restarts)
}

// boundPod is the pod realizing sp on device uuid: its pod spec pinned to
// its node — explicit binding, no kube-scheduler involvement — with the
// device in the environment. Its share and mode go on the node's container
// list (DevMgr.bind), not on the pod.
func boundPod(sp *SharePod, uuid string) *api.Pod {
	spec := sp.Spec.Pod.Clone()
	spec.NodeName = sp.Spec.NodeName
	for i := range spec.Containers {
		c := &spec.Containers[i]
		if c.Env == nil {
			c.Env = map[string]string{}
		}
		// The paper's DevMgr converts GPUID to UUID and sets
		// NVIDIA_VISIBLE_DEVICES itself (§4.4); admission guarantees the
		// spec requests no device plugin resource, so the physical GPU
		// stays pinned solely by the holder pod.
		c.Env["NVIDIA_VISIBLE_DEVICES"] = uuid
	}
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{
			Name:      boundPodName(sp.Name, sp.Status.Restarts),
			Labels:    map[string]string{LabelSharePod: sp.Name},
			OwnerName: KindSharePod + "/" + sp.Name,
		},
		Spec: spec,
	}
}

// holderPod is incarnation gen of the native pod that pins gpuID's physical
// GPU: one whole device on node, through the device plugin.
func holderPod(gpuID, node string, gen int) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{
			Name:      holderPodName(gpuID, gen),
			Labels:    map[string]string{LabelVGPUHolder: gpuID},
			OwnerName: KindVGPU + "/" + gpuID,
		},
		Spec: api.PodSpec{
			NodeName: node,
			Containers: []api.Container{{
				Name:     "holder",
				Image:    HolderImage,
				Requests: api.ResourceList{api.ResourceGPU: 1},
			}},
		},
	}
}
