package api

import (
	"testing"
	"testing/quick"
)

func TestResourceListAddSub(t *testing.T) {
	r := ResourceList{ResourceCPU: 1000, ResourceGPU: 2}
	r.Add(ResourceList{ResourceCPU: 500, ResourceMemory: 100})
	if r[ResourceCPU] != 1500 || r[ResourceMemory] != 100 {
		t.Fatalf("after add: %v", r)
	}
	r.Sub(ResourceList{ResourceCPU: 1500})
	if r[ResourceCPU] != 0 || r[ResourceGPU] != 2 || r[ResourceMemory] != 100 {
		t.Fatalf("after sub: %v", r)
	}
}

func TestResourceListCloneIsDeep(t *testing.T) {
	r := ResourceList{ResourceCPU: 1}
	c := r.Clone()
	c[ResourceCPU] = 99
	if r[ResourceCPU] != 1 {
		t.Fatal("clone aliases original")
	}
	if ResourceList(nil).Clone() != nil {
		t.Fatal("nil clone must be nil")
	}
}

func TestPodDeepCopyIsDeep(t *testing.T) {
	pod := &Pod{
		ObjectMeta: ObjectMeta{Name: "p", Labels: map[string]string{"a": "1"}},
		Spec: PodSpec{
			NodeSelector: map[string]string{"zone": "x"},
			Containers: []Container{{
				Name: "c", Image: "img",
				Env:      map[string]string{"K": "V"},
				Requests: ResourceList{ResourceCPU: 100},
			}},
		},
	}
	cp := pod.DeepCopyObject().(*Pod)
	cp.Labels["a"] = "2"
	cp.Spec.Containers[0].Env["K"] = "X"
	cp.Spec.Containers[0].Requests[ResourceCPU] = 999
	cp.Spec.NodeSelector["zone"] = "y"
	if pod.Labels["a"] != "1" || pod.Spec.Containers[0].Env["K"] != "V" ||
		pod.Spec.Containers[0].Requests[ResourceCPU] != 100 || pod.Spec.NodeSelector["zone"] != "x" {
		t.Fatal("DeepCopyObject shares state with original")
	}
}

func TestPodRequestsSumsContainers(t *testing.T) {
	spec := PodSpec{Containers: []Container{
		{Name: "a", Image: "i", Requests: ResourceList{ResourceCPU: 100, ResourceGPU: 1}},
		{Name: "b", Image: "i", Requests: ResourceList{ResourceCPU: 200}},
	}}
	total := spec.Requests()
	if total[ResourceCPU] != 300 || total[ResourceGPU] != 1 {
		t.Fatalf("requests = %v", total)
	}
}

func TestPodTerminated(t *testing.T) {
	p := &Pod{}
	for phase, want := range map[PodPhase]bool{
		PodPending: false, PodRunning: false, PodSucceeded: true, PodFailed: true,
	} {
		p.Status.Phase = phase
		if p.Terminated() != want {
			t.Fatalf("Terminated() for %s = %v", phase, p.Terminated())
		}
	}
}

func TestNodeMatchesSelector(t *testing.T) {
	n := &Node{ObjectMeta: ObjectMeta{Labels: map[string]string{"gpu": "v100", "zone": "a"}}}
	if !n.MatchesSelector(nil) || !n.MatchesSelector(map[string]string{"gpu": "v100"}) {
		t.Fatal("selector should match")
	}
	if n.MatchesSelector(map[string]string{"gpu": "a100"}) {
		t.Fatal("selector should not match")
	}
}

func TestValidatePodSpec(t *testing.T) {
	good := PodSpec{Containers: []Container{{Name: "c", Image: "i"}}}
	if err := ValidatePodSpec(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []PodSpec{
		{},
		{Containers: []Container{{Name: "", Image: "i"}}},
		{Containers: []Container{{Name: "c", Image: ""}}},
		{Containers: []Container{{Name: "c", Image: "i"}, {Name: "c", Image: "i"}}},
		{Containers: []Container{{Name: "c", Image: "i", Requests: ResourceList{ResourceCPU: -1}}}},
	}
	for i, spec := range cases {
		if err := ValidatePodSpec(spec); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

func TestRCMatchesLabels(t *testing.T) {
	rc := &ReplicationController{Selector: map[string]string{"app": "x"}}
	if !rc.MatchesLabels(map[string]string{"app": "x", "extra": "y"}) {
		t.Fatal("should match")
	}
	if rc.MatchesLabels(map[string]string{"app": "y"}) {
		t.Fatal("should not match")
	}
	empty := &ReplicationController{}
	if empty.MatchesLabels(map[string]string{"app": "x"}) {
		t.Fatal("empty selector must match nothing")
	}
}

func TestKeyFormat(t *testing.T) {
	pod := &Pod{ObjectMeta: ObjectMeta{Name: "p1"}}
	if Key(pod) != "Pod/p1" || KeyOf("Pod", "p1") != "Pod/p1" {
		t.Fatalf("key = %q", Key(pod))
	}
}

// Property: Add(need) then Sub(need) restores the list (add/sub are exact
// inverses).
func TestPropertyAddSubInverse(t *testing.T) {
	f := func(a, b uint16) bool {
		r := ResourceList{ResourceCPU: int64(a)}
		need := ResourceList{ResourceCPU: int64(b)}
		before := r[ResourceCPU]
		r.Add(need)
		r.Sub(need)
		return r[ResourceCPU] == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
