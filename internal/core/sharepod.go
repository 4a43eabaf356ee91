// Package core implements KubeShare, the paper's contribution: GPU sharing
// in Kubernetes with fine-grained allocation and first-class GPU identity.
//
// It consists of two custom controllers following the operator pattern
// (§4.6): KubeShare-Sched assigns sharePods to vGPUs with the locality- and
// resource-aware Algorithm 1, and KubeShare-DevMgr manages the vGPU pool
// lifecycle, performs the explicit pod↔device binding, and installs the
// vGPU device library into containers.
package core

import (
	"fmt"
	"time"

	"kubeshare/internal/devlib"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
)

// Kind names of the custom resources KubeShare adds to the API server.
const (
	KindSharePod = "SharePod"
	KindVGPU     = "VGPU"
)

// The custom resources join the kind registry so the store's durability
// layer (WAL + checkpoints) can decode them back into typed objects during
// an apiserver restore — the CRD analogue of scheme registration.
func init() {
	api.RegisterKind(KindSharePod, func() api.Object { return &SharePod{} })
	api.RegisterKind(KindVGPU, func() api.Object { return &VGPU{} })
	api.RegisterKind(KindSharePodSet, func() api.Object { return &SharePodSet{} })
}

// SharePodPhase is the lifecycle phase of a sharePod.
type SharePodPhase string

// SharePod lifecycle phases. Rejected marks requests whose locality
// constraints are unsatisfiable (Algorithm 1 returns -1).
const (
	SharePodPending   SharePodPhase = "Pending"
	SharePodScheduled SharePodPhase = "Scheduled"
	SharePodRunning   SharePodPhase = "Running"
	SharePodSucceeded SharePodPhase = "Succeeded"
	SharePodFailed    SharePodPhase = "Failed"
	SharePodRejected  SharePodPhase = "Rejected"
)

// SharePodSpec is the paper's resource specification (§4.2): the original
// pod spec plus fractional GPU demands, the vGPU identity, and locality
// constraints.
type SharePodSpec struct {
	// Pod is the original PodSpec the bound pod is created from.
	Pod api.PodSpec
	// GPURequest is the guaranteed minimum compute share in (0,1].
	GPURequest float64
	// GPULimit is the maximum compute share; 0 defaults to GPURequest.
	GPULimit float64
	// GPUMem is the device-memory fraction in (0,1].
	GPUMem float64
	// GPUMemBytes is the absolute device-memory request in bytes (the
	// KAI-style quantity form). Exactly one of GPUMem / GPUMemBytes may be
	// positive; the byte form is enforced both at placement (byte residuals
	// in Algorithm 1 and the MemoryFit plugin) and inside the device's
	// memory model.
	GPUMemBytes int64
	// SharingMode selects the GPU-sharing strategy for the device this pod
	// lands on: "" or "token" (the paper's token time-slicing), "mps"
	// (MPS-style overlap), or "replica" (logical-GPU time-slicing). Devices
	// run exactly one strategy; use Exclusion labels to segregate modes.
	SharingMode string
	// GPUID selects a specific vGPU. Usually assigned by KubeShare-Sched,
	// but a client may set it directly — GPUs are first-class, explicitly
	// addressable resources.
	GPUID string
	// NodeName is the node hosting the vGPU (set together with GPUID).
	NodeName string
	// Affinity, AntiAffinity and Exclusion are the locality constraint
	// labels (sched_affinity / sched_anti-affinity / sched_exclusion).
	Affinity     string
	AntiAffinity string
	Exclusion    string
	// Gang names an all-or-nothing co-scheduling group: members of the same
	// gang are placed atomically in one scheduling cycle once GangSize of
	// them are pending, or not at all. Set by the SharePodSet controller for
	// gang-enabled sets; "" disables gang semantics. The gate applies to
	// initial admission only — a member requeued after recovery (Restarts >
	// 0) reschedules solo, since its peers already hold their placements.
	Gang string
	// GangSize is the total member count the gang waits for.
	GangSize int
}

// Share converts the spec's fractions into a device library share.
func (s SharePodSpec) Share() devlib.Share {
	return devlib.Share{
		Request:     s.GPURequest,
		Limit:       s.GPULimit,
		Memory:      s.GPUMem,
		MemoryBytes: s.GPUMemBytes,
	}
}

// Clone returns a deep copy.
func (s SharePodSpec) Clone() SharePodSpec {
	out := s
	out.Pod = s.Pod.Clone()
	return out
}

// AppendBinary appends the spec's binary form (see api/binary.go).
func (s *SharePodSpec) AppendBinary(dst []byte) []byte {
	dst = s.Pod.AppendBinary(dst)
	dst = api.AppendFloat64(api.AppendFloat64(api.AppendFloat64(dst, s.GPURequest), s.GPULimit), s.GPUMem)
	dst = api.AppendVarint(dst, s.GPUMemBytes)
	for _, f := range [...]string{s.SharingMode, s.GPUID, s.NodeName, s.Affinity, s.AntiAffinity, s.Exclusion, s.Gang} {
		dst = api.AppendString(dst, f)
	}
	return api.AppendVarint(dst, int64(s.GangSize))
}

// DecodeBinary reads what AppendBinary wrote.
func (s *SharePodSpec) DecodeBinary(d *api.Dec) {
	s.Pod.DecodeBinary(d)
	s.GPURequest, s.GPULimit, s.GPUMem = d.Float64(), d.Float64(), d.Float64()
	s.GPUMemBytes = d.Varint()
	for _, f := range [...]*string{&s.SharingMode, &s.GPUID, &s.NodeName, &s.Affinity, &s.AntiAffinity, &s.Exclusion, &s.Gang} {
		*f = d.String()
	}
	s.GangSize = d.Int()
}

// SharePodStatus is the observed state of a sharePod.
type SharePodStatus struct {
	Phase   SharePodPhase
	Message string
	// BoundPod is the name of the pod DevMgr created for this sharePod.
	BoundPod string
	// UUID is the physical GPU backing the assigned vGPU.
	UUID string
	// Restarts counts recovery requeues: each time the bound pod vanished
	// under a live sharePod (node eviction, vGPU loss) the scheduler cleared
	// the placement and incremented this. It also versions the bound pod
	// name, so a replacement never collides with its dying predecessor.
	Restarts int
	// ScheduledTime is when KubeShare-Sched assigned the GPUID;
	// RunningTime/FinishTime track the bound pod.
	ScheduledTime time.Duration
	RunningTime   time.Duration
	FinishTime    time.Duration
}

// SharePod is the custom resource representing a pod with a fractional,
// explicitly bound GPU share.
type SharePod struct {
	api.ObjectMeta
	Spec   SharePodSpec
	Status SharePodStatus
}

// GetMeta implements api.Object.
func (s *SharePod) GetMeta() *api.ObjectMeta { return &s.ObjectMeta }

// Kind implements api.Object.
func (s *SharePod) Kind() string { return KindSharePod }

// DeepCopyObject implements api.Object.
func (s *SharePod) DeepCopyObject() api.Object {
	out := *s
	out.ObjectMeta = s.CloneMeta()
	out.Spec = s.Spec.Clone()
	return &out
}

// AppendBinary implements api.Object.
func (s *SharePod) AppendBinary(dst []byte) []byte {
	dst = s.Spec.AppendBinary(s.AppendMeta(dst))
	st := &s.Status
	for _, f := range [...]string{string(st.Phase), st.Message, st.BoundPod, st.UUID} {
		dst = api.AppendString(dst, f)
	}
	dst = api.AppendVarint(dst, int64(st.Restarts))
	dst = api.AppendVarint(dst, int64(st.ScheduledTime))
	dst = api.AppendVarint(dst, int64(st.RunningTime))
	return api.AppendVarint(dst, int64(st.FinishTime))
}

// DecodeBinary implements api.Object.
func (s *SharePod) DecodeBinary(d *api.Dec) {
	s.DecodeMeta(d)
	s.Spec.DecodeBinary(d)
	st := &s.Status
	st.Phase = SharePodPhase(d.String())
	st.Message, st.BoundPod, st.UUID = d.String(), d.String(), d.String()
	st.Restarts = d.Int()
	st.ScheduledTime, st.RunningTime, st.FinishTime = d.Duration(), d.Duration(), d.Duration()
}

// WithStatusFrom implements api.StatusCarrier: KubeShare-Sched owns the
// spec's placement fields while DevMgr reports status, so the two write
// through separate subresources and never race.
func (s *SharePod) WithStatusFrom(src api.Object) api.Object {
	out := *s
	out.Status = src.(*SharePod).Status
	return &out
}

// Terminated reports whether the sharePod reached a terminal phase.
func (s *SharePod) Terminated() bool {
	switch s.Status.Phase {
	case SharePodSucceeded, SharePodFailed, SharePodRejected:
		return true
	}
	return false
}

// Placed reports whether a vGPU has been assigned.
func (s *SharePod) Placed() bool { return s.Spec.GPUID != "" }

// Placement is a typed placement: where a workload landed and whether its
// GPU grant is fractional. Callers previously reassembled this from spec
// fields and bound-pod annotation strings; the typed form is the API.
type Placement struct {
	// NodeName is the hosting node ("" when unplaced).
	NodeName string
	// GPUID is the assigned vGPU ("" when unplaced).
	GPUID string
	// Partial marks a fractional share — the workload co-tenants its device
	// (gpu_request or gpu_mem below a whole GPU).
	Partial bool
}

// Assigned reports whether the placement names a device.
func (p Placement) Assigned() bool { return p.GPUID != "" }

// Placement returns the sharePod's typed placement.
func (s *SharePod) Placement() Placement {
	return Placement{
		NodeName: s.Spec.NodeName,
		GPUID:    s.Spec.GPUID,
		Partial:  s.Spec.GPURequest < 1 || s.Spec.GPUMem < 1,
	}
}

// RequeueSharePod is the shared recovery edge: it clears a live, placed
// sharePod's placement and resets it to Pending with Restarts incremented,
// so Algorithm 1 re-places the work against current cluster state. Both
// KubeShare-Sched (bound pod deleted under a live sharePod) and DevMgr
// (vGPU lost with no bound pod to delete) funnel through it. The writes
// cannot race with a placement in flight — every writer runs in the same
// cooperative scheduler and performs its read-decide-write without
// yielding. Returns the updated object, or nil when the sharePod is gone,
// terminal, or already unplaced.
func RequeueSharePod(srv *apiserver.Server, name string) *SharePod {
	sps := SharePods(srv)
	sp, err := sps.Get(name)
	if err != nil || sp.Terminated() || !sp.Placed() {
		return nil
	}
	if _, err := sps.Mutate(name, func(cur *SharePod) error {
		cur.Spec.GPUID = ""
		cur.Spec.NodeName = ""
		return nil
	}); err != nil {
		return nil
	}
	updated, err := sps.MutateStatus(name, func(cur *SharePod) error {
		cur.Status.Phase = SharePodPending
		cur.Status.BoundPod = ""
		cur.Status.UUID = ""
		cur.Status.Restarts++
		return nil
	})
	if err != nil {
		return nil
	}
	return updated
}

// ValidationError is the typed admission error for bad GPU share fields,
// returned by ValidateSharePod on both Create and Update (the validator is
// registered for both verbs). Callers detect it with errors.As to
// distinguish a malformed spec from infrastructure failures.
type ValidationError struct {
	// Field is the offending spec field (e.g. "GPURequest").
	Field string
	// Reason describes the violation.
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: invalid %s: %s", e.Field, e.Reason)
}

// validateGPUFields checks the spec's GPU quantities, returning a typed
// *ValidationError on the first violation. Each range test is written to
// accept, so that NaN — for which every comparison is false — is refused
// with ±Inf and everything else out of range.
func validateGPUFields(spec SharePodSpec) error {
	if !(spec.GPURequest > 0 && spec.GPURequest <= 1) {
		return &ValidationError{Field: "GPURequest",
			Reason: fmt.Sprintf("%v outside (0,1]", spec.GPURequest)}
	}
	if !(spec.GPULimit >= 0 && spec.GPULimit <= 1) {
		return &ValidationError{Field: "GPULimit",
			Reason: fmt.Sprintf("%v outside [0,1]", spec.GPULimit)}
	}
	if spec.GPULimit != 0 && spec.GPURequest > spec.GPULimit {
		return &ValidationError{Field: "GPULimit",
			Reason: fmt.Sprintf("%v below GPURequest %v", spec.GPULimit, spec.GPURequest)}
	}
	if !(spec.GPUMem >= 0 && spec.GPUMem <= 1) {
		return &ValidationError{Field: "GPUMem",
			Reason: fmt.Sprintf("%v outside [0,1]", spec.GPUMem)}
	}
	if spec.GPUMemBytes < 0 {
		return &ValidationError{Field: "GPUMemBytes",
			Reason: fmt.Sprintf("%d negative", spec.GPUMemBytes)}
	}
	if spec.GPUMemBytes > DeviceMemBytes {
		// Mirrors the fractional cap of 1.0: a request no physical device can
		// hold is rejected at admission, not left to starve in the queue.
		return &ValidationError{Field: "GPUMemBytes",
			Reason: fmt.Sprintf("%d exceeds device capacity %d", spec.GPUMemBytes, DeviceMemBytes)}
	}
	if spec.GPUMem == 0 && spec.GPUMemBytes == 0 {
		return &ValidationError{Field: "GPUMem",
			Reason: "one of GPUMem / GPUMemBytes must be positive"}
	}
	if spec.GPUMem > 0 && spec.GPUMemBytes > 0 {
		return &ValidationError{Field: "GPUMemBytes",
			Reason: "GPUMem and GPUMemBytes are mutually exclusive"}
	}
	if _, err := sharing.ParseMode(spec.SharingMode); err != nil {
		return &ValidationError{Field: "SharingMode", Reason: err.Error()}
	}
	return nil
}

// ValidateSharePod is the admission validator for the SharePod kind.
func ValidateSharePod(o api.Object) error {
	sp, ok := o.(*SharePod)
	if !ok {
		return fmt.Errorf("core: object is %T, not *SharePod", o)
	}
	if err := api.ValidatePodSpec(sp.Spec.Pod); err != nil {
		return err
	}
	// The fractional shares are pod-level quantities but the device library
	// registers per container; with one container per pod (the paper's §2.1
	// assumption) the two coincide. Reject multi-container specs rather
	// than silently over-committing the device.
	if len(sp.Spec.Pod.Containers) != 1 {
		return fmt.Errorf("core: sharePod must have exactly one container (got %d)", len(sp.Spec.Pod.Containers))
	}
	if gpus := sp.Spec.Pod.Requests()[api.ResourceGPU]; gpus != 0 {
		return fmt.Errorf("core: sharePod container must not request %s (the share fields replace it)", api.ResourceGPU)
	}
	if err := validateGPUFields(sp.Spec); err != nil {
		return err
	}
	if err := sp.Spec.Share().Validate(); err != nil {
		return err
	}
	if sp.Spec.GPUID != "" && sp.Spec.NodeName == "" {
		return fmt.Errorf("core: GPUID set without NodeName")
	}
	if sp.Spec.Gang == "" && sp.Spec.GangSize != 0 {
		return fmt.Errorf("core: GangSize set without Gang")
	}
	if sp.Spec.Gang != "" && sp.Spec.GangSize < 1 {
		return fmt.Errorf("core: gang %q needs GangSize >= 1", sp.Spec.Gang)
	}
	return nil
}

// VGPUPhase is the vGPU lifecycle phase (§4.4).
type VGPUPhase string

// vGPU lifecycle phases: Creating (acquiring a physical GPU from
// Kubernetes), Active (attached to ≥1 sharePod), Idle (in pool, no
// tenants). Deletion removes the object.
const (
	VGPUCreating VGPUPhase = "Creating"
	VGPUActive   VGPUPhase = "Active"
	VGPUIdle     VGPUPhase = "Idle"
)

// VGPUSpec identifies a vGPU.
type VGPUSpec struct {
	GPUID    string
	NodeName string
}

// VGPUStatus is the observed state of a vGPU.
type VGPUStatus struct {
	Phase VGPUPhase
	// UUID is the physical device, discovered from the holder pod's
	// NVIDIA_VISIBLE_DEVICES once acquisition completes.
	UUID string
	// HolderPod is the native pod pinning the physical GPU.
	HolderPod string
}

// VGPU is the custom resource representing one pool device. Its object name
// equals Spec.GPUID.
type VGPU struct {
	api.ObjectMeta
	Spec   VGPUSpec
	Status VGPUStatus
}

// GetMeta implements api.Object.
func (v *VGPU) GetMeta() *api.ObjectMeta { return &v.ObjectMeta }

// Kind implements api.Object.
func (v *VGPU) Kind() string { return KindVGPU }

// DeepCopyObject implements api.Object.
func (v *VGPU) DeepCopyObject() api.Object {
	out := *v
	out.ObjectMeta = v.CloneMeta()
	return &out
}

// AppendBinary implements api.Object.
func (v *VGPU) AppendBinary(dst []byte) []byte {
	dst = v.AppendMeta(dst)
	for _, f := range [...]string{v.Spec.GPUID, v.Spec.NodeName, string(v.Status.Phase), v.Status.UUID, v.Status.HolderPod} {
		dst = api.AppendString(dst, f)
	}
	return dst
}

// DecodeBinary implements api.Object.
func (v *VGPU) DecodeBinary(d *api.Dec) {
	v.DecodeMeta(d)
	v.Spec.GPUID, v.Spec.NodeName = d.String(), d.String()
	v.Status.Phase = VGPUPhase(d.String())
	v.Status.UUID, v.Status.HolderPod = d.String(), d.String()
}

// WithStatusFrom implements api.StatusCarrier.
func (v *VGPU) WithStatusFrom(src api.Object) api.Object {
	out := *v
	out.Status = src.(*VGPU).Status
	return &out
}
