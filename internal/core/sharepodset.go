package core

import (
	"fmt"
	"strconv"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/backoff"
	"kubeshare/internal/kube/controller"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// Replacement backoff for failed replicas: the first failure is replaced
// after roughly replaceBackoffBase, growing per consecutive failure round
// up to replaceBackoffCap under the shared decorrelated-jitter policy
// (internal/kube/backoff). A set whose replicas all come up Ready resets.
const (
	replaceBackoffBase = 250 * time.Millisecond
	replaceBackoffCap  = 8 * time.Second
)

// KindSharePodSet is the replica-controller custom resource over sharePods.
const KindSharePodSet = "SharePodSet"

// SharePodSet maintains Replicas live sharePods stamped from Template —
// the §4.6 demonstration that higher-level controllers compose with
// KubeShare exactly as they do with native pods: the set controller talks
// only to the API server, KubeShare-Sched and DevMgr do the rest.
type SharePodSet struct {
	api.ObjectMeta
	Replicas int
	// Template is the sharePod spec each replica is created from (GPUID
	// and NodeName must be empty; the scheduler assigns them per replica).
	Template SharePodSpec
	// Gang requests all-or-nothing co-scheduling: the manager stamps every
	// replica with the set's gang (named after the set, sized Replicas), so
	// the scheduler admits the whole set in one cycle or none of it — the
	// distributed-training pattern where a partial replica set only wastes
	// GPU time.
	Gang bool
	// ReadyReplicas counts replicas whose bound pod is running.
	ReadyReplicas int
}

// GetMeta implements api.Object.
func (s *SharePodSet) GetMeta() *api.ObjectMeta { return &s.ObjectMeta }

// Kind implements api.Object.
func (s *SharePodSet) Kind() string { return KindSharePodSet }

// DeepCopyObject implements api.Object.
func (s *SharePodSet) DeepCopyObject() api.Object {
	out := *s
	out.ObjectMeta = s.CloneMeta()
	out.Template = s.Template.Clone()
	return &out
}

// AppendBinary implements api.Object.
func (s *SharePodSet) AppendBinary(dst []byte) []byte {
	dst = api.AppendVarint(s.AppendMeta(dst), int64(s.Replicas))
	dst = api.AppendBool(s.Template.AppendBinary(dst), s.Gang)
	return api.AppendVarint(dst, int64(s.ReadyReplicas))
}

// DecodeBinary implements api.Object.
func (s *SharePodSet) DecodeBinary(d *api.Dec) {
	s.DecodeMeta(d)
	s.Replicas = d.Int()
	s.Template.DecodeBinary(d)
	s.Gang = d.Bool()
	s.ReadyReplicas = d.Int()
}

// SharePodSets returns the typed client.
func SharePodSets(srv *apiserver.Server) apiserver.Client[*SharePodSet] {
	return apiserver.NewClient[*SharePodSet](srv, KindSharePodSet)
}

// setOwnerPrefix qualifies OwnerName references held by set-created
// sharePods.
const setOwnerPrefix = KindSharePodSet + "/"

// SharePodSetManager reconciles SharePodSet objects. Failed replicas are
// garbage-collected and replaced with capped exponential backoff, so a
// crash-looping template cannot hammer the scheduler.
type SharePodSetManager struct {
	env    *sim.Env
	srv    *apiserver.Server
	runner *controller.Runner
	sets   *apiserver.Reflector
	serial int
	// replaceFails holds each set's replacement-backoff sequence across
	// consecutive failed-replica rounds.
	replaceFails map[string]*backoff.Backoff
}

// NewSharePodSetManager creates the manager; Start launches its watches.
func NewSharePodSetManager(env *sim.Env, srv *apiserver.Server) *SharePodSetManager {
	m := &SharePodSetManager{env: env, srv: srv, replaceFails: make(map[string]*backoff.Backoff)}
	m.runner = controller.NewRunner(env, "sharepodset", 0, m.reconcile)
	srv.RegisterValidator(KindSharePodSet, func(o api.Object) error {
		set := o.(*SharePodSet)
		if set.Replicas < 0 {
			return fmt.Errorf("core: negative replicas")
		}
		if set.Template.GPUID != "" {
			return fmt.Errorf("core: set template must not pin a GPUID")
		}
		if set.Template.Gang != "" || set.Template.GangSize != 0 {
			return fmt.Errorf("core: set template must not carry gang fields (set Gang on the set; the manager stamps replicas)")
		}
		if set.Gang && set.Replicas < 1 {
			return fmt.Errorf("core: gang set needs at least one replica")
		}
		probe := &SharePod{ObjectMeta: api.ObjectMeta{Name: "probe"}, Spec: set.Template}
		return ValidateSharePod(probe)
	})
	return m
}

// Start begins watching sets and their sharePods. Reflectors keep the
// manager alive across apiserver restarts: the dead watch queue is replaced
// by a relist and its diff instead of silently ending the loop.
func (m *SharePodSetManager) Start() {
	m.sets = m.srv.Inform("sharepodset", "sharepodset-watch", KindSharePodSet, apiserver.WatchOptions{Replay: true}, func(_ *sim.Proc, ev store.Event) {
		m.runner.Enqueue(ev.Object.GetMeta().Name)
	})
	m.srv.Inform("sharepodset", "sharepodset-watch-sharepods", KindSharePod, apiserver.WatchOptions{Replay: true, OwnerKind: KindSharePodSet}, func(_ *sim.Proc, ev store.Event) {
		m.runner.Enqueue(ev.Object.GetMeta().OwnerName[len(setOwnerPrefix):])
	})
	m.runner.Start()
}

func (m *SharePodSetManager) reconcile(p *sim.Proc, name string) error {
	obj, ok := m.sets.Cached(name)
	if !ok {
		m.cleanupOrphans(name)
		return nil
	}
	set := obj.(*SharePodSet)
	sps := SharePods(m.srv)
	var owned []*SharePod
	var failed []*SharePod
	live := 0
	ready := 0
	for _, sp := range sps.List() {
		if sp.OwnerName != setOwnerPrefix+name {
			continue
		}
		owned = append(owned, sp)
		if !sp.Terminated() {
			live++
		}
		if sp.Status.Phase == SharePodRunning {
			ready++
		}
		if sp.Status.Phase == SharePodFailed {
			failed = append(failed, sp)
		}
	}
	if len(failed) > 0 {
		// GC the corpses now; defer the replacements one backoff round so a
		// template that fails on contact cannot spin the control plane.
		for _, sp := range failed {
			if err := sps.Delete(sp.Name); err != nil && !apiserver.IsNotFound(err) {
				return err
			}
		}
		m.runner.EnqueueAfter(name, m.replaceDelay(name))
		return nil
	}
	if ready >= set.Replicas {
		delete(m.replaceFails, name)
	}
	for live < set.Replicas {
		m.serial++
		sp := &SharePod{
			ObjectMeta: api.ObjectMeta{
				Name:      set.Name + "-" + strconv.Itoa(m.serial),
				OwnerName: setOwnerPrefix + set.Name,
			},
			Spec: set.Template.Clone(),
		}
		if set.Gang {
			sp.Spec.Gang = set.Name
			sp.Spec.GangSize = set.Replicas
		}
		if _, err := sps.Create(sp); err != nil {
			return fmt.Errorf("sharepodset %s: create: %w", name, err)
		}
		live++
	}
	for i := len(owned) - 1; i >= 0 && live > set.Replicas; i-- {
		if owned[i].Terminated() {
			continue
		}
		if err := sps.Delete(owned[i].Name); err != nil && !apiserver.IsNotFound(err) {
			return err
		}
		live--
	}
	if set.ReadyReplicas != ready {
		if _, err := SharePodSets(m.srv).Mutate(name, func(cur *SharePodSet) error {
			if cur.ReadyReplicas == ready {
				return errUnchanged // the cache trailed this manager's own write
			}
			cur.ReadyReplicas = ready
			return nil
		}); settled(err) != nil {
			return err
		}
	}
	return nil
}

// replaceDelay advances the set's replacement-backoff sequence, creating
// it on the first failed round.
func (m *SharePodSetManager) replaceDelay(name string) time.Duration {
	b := m.replaceFails[name]
	if b == nil {
		b = backoff.New("sharepodset/"+name, replaceBackoffBase, replaceBackoffCap)
		m.replaceFails[name] = b
	}
	return b.Next()
}

func (m *SharePodSetManager) cleanupOrphans(owner string) {
	sps := SharePods(m.srv)
	for _, sp := range sps.List() {
		if sp.OwnerName == setOwnerPrefix+owner {
			_ = sps.Delete(sp.Name)
		}
	}
}
