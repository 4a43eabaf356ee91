package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
)

// TestIndexConsistencyUnderChurn drives a long randomized create / update /
// update-status / delete sequence and checks, against a brute-force model,
// that the indexed paths stay exact: sorted lists, selector queries answered
// from the posting index, revision monotonicity, and watch-replay
// equivalence for subscriptions registered mid-churn.
func TestIndexConsistencyUnderChurn(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	rng := rand.New(rand.NewSource(7))

	lblKeys := []string{"app", "tier", "zone"}
	lblVals := []string{"a", "b", "c"}
	randLabels := func() map[string]string {
		out := map[string]string{}
		for _, k := range lblKeys {
			if rng.Intn(2) == 0 {
				out[k] = lblVals[rng.Intn(len(lblVals))]
			}
		}
		return out
	}

	model := map[string]map[string]string{} // name → labels
	var kindQ, nameQ *sim.Queue[Event]
	const watchedName = "p-05"

	lastRev := s.Revision()
	for i := 0; i < 3000; i++ {
		name := fmt.Sprintf("p-%02d", rng.Intn(40))
		switch rng.Intn(5) {
		case 0: // create
			p := pod(name)
			p.Labels = randLabels()
			if _, err := s.Create(p); err == nil {
				model[name] = p.Labels
			}
		case 1, 2: // spec/label update
			if cur, err := edit(s, "Pod", name); err == nil {
				cp := cur.(*api.Pod)
				cp.Labels = randLabels()
				cp.Spec.NodeName = fmt.Sprintf("n-%d", rng.Intn(4))
				if _, err := s.Update(cp); err != nil {
					t.Fatalf("update %s: %v", name, err)
				}
				model[name] = cp.Labels
			}
		case 3: // status update (must not disturb labels or the index)
			if cur, err := edit(s, "Pod", name); err == nil {
				cp := cur.(*api.Pod)
				cp.Status.Phase = api.PodRunning
				if _, err := s.UpdateStatus(cp); err != nil {
					t.Fatalf("update status %s: %v", name, err)
				}
			}
		case 4: // delete
			if s.Delete("Pod", name) == nil {
				delete(model, name)
			}
		}
		if rev := s.Revision(); rev < lastRev {
			t.Fatalf("revision went backwards: %d < %d", rev, lastRev)
		} else {
			lastRev = rev
		}
		if i == 1000 {
			// Mid-churn subscriptions: replay must equal the state right now,
			// and folding subsequent deltas must track the live state.
			kindQ = s.Watch("Pod", true)
			nameQ = s.WatchFiltered("Pod", WatchOptions{Name: watchedName, Replay: true})
		}
	}

	// Indexed list equals the model.
	final := s.List("Pod")
	if len(final) != len(model) {
		t.Fatalf("list has %d objects, model %d", len(final), len(model))
	}
	for i, obj := range final {
		name := obj.GetMeta().Name
		if _, ok := model[name]; !ok {
			t.Fatalf("list contains %s, not in model", name)
		}
		if i > 0 && final[i-1].GetMeta().Name >= name {
			t.Fatalf("list unsorted at %d", i)
		}
	}

	// Selector queries answered from the posting index equal brute force.
	sels := []labels.Selector{
		labels.SelectorFromMap(map[string]string{"app": "a"}),
		labels.SelectorFromMap(map[string]string{"app": "b", "tier": "c"}),
		labels.HasKey("zone"),
		labels.NewSelector(labels.Requirement{Key: "app", Op: labels.NotEquals, Value: "a"}),
		labels.NewSelector(
			labels.Requirement{Key: "tier", Op: labels.Exists},
			labels.Requirement{Key: "zone", Op: labels.DoesNotExist},
		),
	}
	for _, sel := range sels {
		got := map[string]bool{}
		for _, obj := range s.ListSelector("Pod", sel) {
			got[obj.GetMeta().Name] = true
		}
		want := map[string]bool{}
		for name, lbls := range model {
			if sel.Matches(lbls) {
				want[name] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("selector %q: got %d, want %d", sel, len(got), len(want))
		}
		for name := range want {
			if !got[name] {
				t.Fatalf("selector %q: missing %s", sel, name)
			}
		}
	}

	// Watch-replay equivalence: replay + folded deltas reproduce the final
	// state, including ResourceVersions.
	view := map[string]api.Object{}
	for {
		ev, ok := kindQ.TryGet()
		if !ok {
			break
		}
		if ev.Type == Deleted {
			delete(view, ev.Object.GetMeta().Name)
		} else {
			view[ev.Object.GetMeta().Name] = ev.Object
		}
	}
	if len(view) != len(final) {
		t.Fatalf("watch view has %d objects, list %d", len(view), len(final))
	}
	for _, obj := range final {
		got, ok := view[obj.GetMeta().Name]
		if !ok {
			t.Fatalf("watch view missing %s", obj.GetMeta().Name)
		}
		if got.GetMeta().ResourceVersion != obj.GetMeta().ResourceVersion {
			t.Fatalf("watch view of %s at RV %d, stored %d",
				obj.GetMeta().Name, got.GetMeta().ResourceVersion, obj.GetMeta().ResourceVersion)
		}
	}

	// Name-filtered watch: only events for the watched name, and its folded
	// state matches the store.
	var nameView api.Object
	deleted := false
	for {
		ev, ok := nameQ.TryGet()
		if !ok {
			break
		}
		if got := ev.Object.GetMeta().Name; got != watchedName {
			t.Fatalf("name-filtered watch delivered %s", got)
		}
		if ev.Type == Deleted {
			nameView, deleted = nil, true
		} else {
			nameView, deleted = ev.Object, false
		}
	}
	cur, err := s.Get("Pod", watchedName)
	switch {
	case err == nil && nameView == nil:
		// The object may have been created before the watch and never touched
		// after... impossible here: replay was on. With replay, nameView==nil
		// means it never existed after registration or was deleted.
		if !deleted {
			t.Fatalf("%s exists but name watch saw nothing", watchedName)
		}
		t.Fatalf("%s exists but name watch last saw a delete", watchedName)
	case err == nil:
		if nameView.GetMeta().ResourceVersion != cur.GetMeta().ResourceVersion {
			t.Fatalf("name watch at RV %d, stored %d",
				nameView.GetMeta().ResourceVersion, cur.GetMeta().ResourceVersion)
		}
	case nameView != nil:
		t.Fatalf("%s gone but name watch still sees it", watchedName)
	}
}

// TestStatusUpdatePreservesLabelIndex pins the interaction between the
// status subresource and the label index: UpdateStatus publishes the stored
// spec and metadata whatever its argument carries, so a caller passing
// different labels and scribbled spec fields changes neither the object nor
// the index — a status write does not touch the index at all (the posting
// set is the same map afterwards, not a rebuilt one) — and the previous
// snapshot is left exactly as it was.
func TestStatusUpdatePreservesLabelIndex(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	p := pod("a")
	p.Labels = map[string]string{"app": "web"}
	if _, err := s.Create(p); err != nil {
		t.Fatal(err)
	}
	prev, _ := s.Get("Pod", "a")
	want := prev.DeepCopyObject()
	posting := reflect.ValueOf(s.kinds["Pod"].byLabel["app"]["web"]).Pointer()

	cp := prev.DeepCopyObject().(*api.Pod)
	cp.Labels = map[string]string{"app": "db"} // ignored by UpdateStatus
	cp.Spec.NodeName = "scribbled"             // so is every spec field
	cp.Spec.Containers[0].Image = "scribbled"
	cp.OwnerName = "scribbled"
	cp.Status.Phase = api.PodRunning
	updated, err := s.UpdateStatus(cp)
	if err != nil {
		t.Fatal(err)
	}
	got := updated.(*api.Pod)
	if got.Status.Phase != api.PodRunning || got.Labels["app"] != "web" || got.OwnerName != "" ||
		got.Spec.NodeName != "" || got.Spec.Containers[0].Image != "i" {
		t.Fatalf("status write published %+v", got)
	}
	if !reflect.DeepEqual(prev, want) {
		t.Fatalf("status write touched the previous snapshot: %+v", prev)
	}
	if got := s.ListSelector("Pod", labels.SelectorFromMap(map[string]string{"app": "web"})); len(got) != 1 || got[0] != updated {
		t.Fatalf("app=web matched %v, want the new snapshot", got)
	}
	if got := s.ListSelector("Pod", labels.SelectorFromMap(map[string]string{"app": "db"})); len(got) != 0 {
		t.Fatalf("app=db matched %d, want 0", len(got))
	}
	if reflect.ValueOf(s.kinds["Pod"].byLabel["app"]["web"]).Pointer() != posting {
		t.Fatal("a status write rebuilt the label's posting set")
	}
}
