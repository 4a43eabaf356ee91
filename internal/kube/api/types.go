// Package api defines the Kubernetes object model used by the simulated
// control plane: pods, nodes, resource lists, bindings and events. Objects
// are plain data; behaviour lives in the components that watch them, exactly
// as in Kubernetes. An object read back from the API server is the shared
// read-only snapshot of its revision (see package store).
package api

import (
	"fmt"
	"time"
)

// Resource names understood by the stock scheduler and kubelet. Custom
// device resources (for example ResourceGPU) are opaque integer counts to
// both — the device plugin framework's deliberate limitation (§2.2 of the
// paper).
const (
	// ResourceCPU is measured in millicores.
	ResourceCPU = "cpu"
	// ResourceMemory is measured in bytes.
	ResourceMemory = "memory"
	// ResourceGPU is the NVIDIA device plugin's extended resource, measured
	// in whole devices.
	ResourceGPU = "nvidia.com/gpu"
)

// ResourceList maps resource names to integer quantities (millicores,
// bytes, or device counts).
type ResourceList map[string]int64

// Clone returns a deep copy.
func (r ResourceList) Clone() ResourceList {
	if r == nil {
		return nil
	}
	out := make(ResourceList, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Add accumulates other into r.
func (r ResourceList) Add(other ResourceList) {
	for k, v := range other {
		r[k] += v
	}
}

// Sub subtracts other from r.
func (r ResourceList) Sub(other ResourceList) {
	for k, v := range other {
		r[k] -= v
	}
}

// ObjectMeta is metadata common to all API objects.
type ObjectMeta struct {
	Name            string
	UID             string
	ResourceVersion int64
	Labels          map[string]string
	Annotations     map[string]string
	// CreationTime is virtual time at creation (set by the API server).
	CreationTime time.Duration
	// OwnerName links controller-created objects to their owner.
	OwnerName string
}

// CloneMeta returns a deep copy of the metadata.
func (m ObjectMeta) CloneMeta() ObjectMeta {
	out := m
	out.Labels = cloneMap(m.Labels)
	out.Annotations = cloneMap(m.Annotations)
	return out
}

// AppendMeta appends the metadata's binary form (see binary.go).
func (m *ObjectMeta) AppendMeta(dst []byte) []byte {
	dst = AppendString(dst, m.Name)
	dst = AppendString(dst, m.UID)
	dst = AppendVarint(dst, m.ResourceVersion)
	dst = AppendStringMap(dst, m.Labels)
	dst = AppendStringMap(dst, m.Annotations)
	dst = AppendVarint(dst, int64(m.CreationTime))
	return AppendString(dst, m.OwnerName)
}

// DecodeMeta reads what AppendMeta wrote.
func (m *ObjectMeta) DecodeMeta(d *Dec) {
	m.Name = d.String()
	m.UID = d.String()
	m.ResourceVersion = d.Varint()
	m.Labels = d.StringMap()
	m.Annotations = d.StringMap()
	m.CreationTime = d.Duration()
	m.OwnerName = d.String()
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Object is the interface all API objects implement. Key uniqueness is
// (Kind, Name).
type Object interface {
	// GetMeta returns a pointer to the object's metadata for the API server
	// to fill in versions and UIDs.
	GetMeta() *ObjectMeta
	// Kind returns the object kind, e.g. "Pod".
	Kind() string
	// DeepCopyObject returns a deep copy.
	DeepCopyObject() Object
	// AppendBinary appends the object's binary form to dst (see binary.go);
	// DecodeBinary fills the receiver, a zero value, from it. Errors stick
	// to the cursor.
	AppendBinary(dst []byte) []byte
	DecodeBinary(d *Dec)
}

// StatusCarrier is implemented by objects with a status subresource. The
// store uses it to keep spec and status writes from clobbering each other:
// Update preserves the stored status (ignoring the caller's status fields)
// and UpdateStatus preserves the stored spec and metadata. Objects that do
// not implement it keep whole-object write semantics.
type StatusCarrier interface {
	Object
	// WithStatusFrom returns a new object sharing the receiver's spec and
	// metadata (maps and slices included: neither may write them afterwards)
	// and carrying a copy of src's status that shares no memory with src.
	// src is of the same concrete type and may be the receiver itself.
	WithStatusFrom(src Object) Object
}

// NodeBound is implemented by objects that run on a node once bound. The
// store's node-scoped watches (store.WatchOptions.Node) ask it where.
type NodeBound interface {
	// BoundNode returns the node the object is bound to, "" while unbound.
	BoundNode() string
}

// Key returns the store key of an object.
func Key(o Object) string { return o.Kind() + "/" + o.GetMeta().Name }

// KeyOf builds a store key from a kind and name.
func KeyOf(kind, name string) string { return kind + "/" + name }

// TraceKey returns the causal-trace chain key for an object: the owner's
// key for controller-created objects (OwnerName is already "Kind/Name"),
// else the object's own key. This is what threads a controller-created
// pod's scheduling and sync spans onto its owner's chain — a sharePod's
// holder and bound pods trace under "SharePod/<name>".
func TraceKey(o Object) string {
	if owner := o.GetMeta().OwnerName; owner != "" {
		return owner
	}
	return Key(o)
}

// --- Pod ---

// PodPhase is the lifecycle phase of a pod.
type PodPhase string

// Pod lifecycle phases.
const (
	PodPending   PodPhase = "Pending"
	PodRunning   PodPhase = "Running"
	PodSucceeded PodPhase = "Succeeded"
	PodFailed    PodPhase = "Failed"
)

// Container is one container in a pod. Its behaviour comes from the image
// registry (the container runtime looks Image up to find the entrypoint).
type Container struct {
	Name     string
	Image    string
	Env      map[string]string
	Requests ResourceList
	Limits   ResourceList
}

// Clone returns a deep copy.
func (c Container) Clone() Container {
	out := c
	out.Env = cloneMap(c.Env)
	out.Requests = c.Requests.Clone()
	out.Limits = c.Limits.Clone()
	return out
}

// PodSpec is the desired state of a pod.
type PodSpec struct {
	// NodeName is empty until the scheduler binds the pod.
	NodeName     string
	Containers   []Container
	NodeSelector map[string]string
}

// Clone returns a deep copy.
func (s PodSpec) Clone() PodSpec {
	out := s
	out.NodeSelector = cloneMap(s.NodeSelector)
	out.Containers = make([]Container, len(s.Containers))
	for i, c := range s.Containers {
		out.Containers[i] = c.Clone()
	}
	return out
}

// AppendBinary appends the spec's binary form.
func (s *PodSpec) AppendBinary(dst []byte) []byte {
	dst = AppendString(dst, s.NodeName)
	dst = AppendBool(dst, s.Containers != nil)
	if s.Containers != nil {
		dst = AppendUvarint(dst, uint64(len(s.Containers)))
		for i := range s.Containers {
			c := &s.Containers[i]
			dst = AppendString(AppendString(dst, c.Name), c.Image)
			dst = AppendStringMap(dst, c.Env)
			dst = AppendResourceList(AppendResourceList(dst, c.Requests), c.Limits)
		}
	}
	return AppendStringMap(dst, s.NodeSelector)
}

// DecodeBinary reads what AppendBinary wrote.
func (s *PodSpec) DecodeBinary(d *Dec) {
	s.NodeName = d.String()
	if d.Bool() {
		s.Containers = make([]Container, d.Count(5)) // two lengths, three presence bytes
		for i := range s.Containers {
			c := &s.Containers[i]
			c.Name, c.Image = d.String(), d.String()
			c.Env = d.StringMap()
			c.Requests, c.Limits = d.ResourceList(), d.ResourceList()
		}
	}
	s.NodeSelector = d.StringMap()
}

// Requests returns the pod-level resource requests (sum over containers).
func (s PodSpec) Requests() ResourceList {
	total := ResourceList{}
	for _, c := range s.Containers {
		total.Add(c.Requests)
	}
	return total
}

// Request returns the pod-level request of one resource: Requests()[name],
// without building the list.
func (s PodSpec) Request(name string) int64 {
	var n int64
	for _, c := range s.Containers {
		n += c.Requests[name]
	}
	return n
}

// PodStatus is the observed state of a pod.
type PodStatus struct {
	Phase   PodPhase
	Message string
	// ScheduledTime/StartTime/FinishTime are virtual timestamps recorded by
	// the scheduler and kubelet; zero until set. StartTime is when all
	// containers entered running.
	ScheduledTime time.Duration
	StartTime     time.Duration
	FinishTime    time.Duration
}

// Pod is the smallest deployable unit.
type Pod struct {
	ObjectMeta
	Spec   PodSpec
	Status PodStatus
}

// GetMeta implements Object.
func (p *Pod) GetMeta() *ObjectMeta { return &p.ObjectMeta }

// Kind implements Object.
func (p *Pod) Kind() string { return "Pod" }

// DeepCopyObject implements Object.
func (p *Pod) DeepCopyObject() Object {
	out := *p
	out.ObjectMeta = p.CloneMeta()
	out.Spec = p.Spec.Clone()
	return &out
}

// AppendBinary implements Object.
func (p *Pod) AppendBinary(dst []byte) []byte {
	dst = p.Spec.AppendBinary(p.AppendMeta(dst))
	dst = AppendString(AppendString(dst, string(p.Status.Phase)), p.Status.Message)
	dst = AppendVarint(dst, int64(p.Status.ScheduledTime))
	dst = AppendVarint(dst, int64(p.Status.StartTime))
	return AppendVarint(dst, int64(p.Status.FinishTime))
}

// DecodeBinary implements Object.
func (p *Pod) DecodeBinary(d *Dec) {
	p.DecodeMeta(d)
	p.Spec.DecodeBinary(d)
	p.Status.Phase, p.Status.Message = PodPhase(d.String()), d.String()
	p.Status.ScheduledTime = d.Duration()
	p.Status.StartTime = d.Duration()
	p.Status.FinishTime = d.Duration()
}

// WithStatusFrom implements StatusCarrier.
func (p *Pod) WithStatusFrom(src Object) Object {
	out := *p
	out.Status = src.(*Pod).Status
	return &out
}

// BoundNode implements NodeBound.
func (p *Pod) BoundNode() string { return p.Spec.NodeName }

// Terminated reports whether the pod reached a terminal phase.
func (p *Pod) Terminated() bool {
	return p.Status.Phase == PodSucceeded || p.Status.Phase == PodFailed
}

// --- Node ---

// NodeStatus is the observed state of a node.
type NodeStatus struct {
	// Capacity is the node's total resources; Allocatable is what the
	// scheduler may commit (devices appear here once their plugin
	// registers).
	Capacity    ResourceList
	Allocatable ResourceList
	Ready       bool
	// HeartbeatTime is the sim instant of the kubelet's last lease renewal;
	// the node-lifecycle controller marks the node NotReady when it goes
	// stale.
	HeartbeatTime time.Duration
}

// Node represents a worker machine.
type Node struct {
	ObjectMeta
	Status NodeStatus
}

// GetMeta implements Object.
func (n *Node) GetMeta() *ObjectMeta { return &n.ObjectMeta }

// Kind implements Object.
func (n *Node) Kind() string { return "Node" }

// DeepCopyObject implements Object.
func (n *Node) DeepCopyObject() Object {
	out := *n
	out.ObjectMeta = n.CloneMeta()
	out.Status.Capacity = n.Status.Capacity.Clone()
	out.Status.Allocatable = n.Status.Allocatable.Clone()
	return &out
}

// AppendBinary implements Object.
func (n *Node) AppendBinary(dst []byte) []byte {
	dst = AppendResourceList(n.AppendMeta(dst), n.Status.Capacity)
	dst = AppendResourceList(dst, n.Status.Allocatable)
	dst = AppendBool(dst, n.Status.Ready)
	return AppendVarint(dst, int64(n.Status.HeartbeatTime))
}

// DecodeBinary implements Object.
func (n *Node) DecodeBinary(d *Dec) {
	n.DecodeMeta(d)
	n.Status.Capacity = d.ResourceList()
	n.Status.Allocatable = d.ResourceList()
	n.Status.Ready = d.Bool()
	n.Status.HeartbeatTime = d.Duration()
}

// WithStatusFrom implements StatusCarrier.
func (n *Node) WithStatusFrom(src Object) Object {
	out := *n
	out.Status = src.(*Node).Status
	out.Status.Capacity = out.Status.Capacity.Clone()
	out.Status.Allocatable = out.Status.Allocatable.Clone()
	return &out
}

// MatchesSelector reports whether the node's labels satisfy sel.
func (n *Node) MatchesSelector(sel map[string]string) bool {
	for k, v := range sel {
		if n.Labels[k] != v {
			return false
		}
	}
	return true
}

// Validate performs basic admission checks shared by pod-carrying objects.
func ValidatePodSpec(s PodSpec) error {
	if len(s.Containers) == 0 {
		return fmt.Errorf("api: pod spec has no containers")
	}
	seen := map[string]bool{}
	for _, c := range s.Containers {
		if c.Name == "" {
			return fmt.Errorf("api: container with empty name")
		}
		if seen[c.Name] {
			return fmt.Errorf("api: duplicate container name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Image == "" {
			return fmt.Errorf("api: container %q has no image", c.Name)
		}
		for k, v := range c.Requests {
			if v < 0 {
				return fmt.Errorf("api: container %q requests negative %s", c.Name, k)
			}
		}
	}
	return nil
}
