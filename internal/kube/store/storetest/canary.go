// Package storetest is test support for the store's ownership rule: the
// object published at a revision is shared by every watcher, every reader,
// the history and the bucket, and nobody may mutate it. Import it from _test.go files only.
//
// The Canary is how the suites that run the whole stack keep every consumer
// honest. It takes a private deep copy of each snapshot at the instant the
// store publishes it — through store.OnPublish, so before any consumer can
// run — and at quiescence compares every shared snapshot against its copy.
// It adds no proc, no queue and no wake-up to the simulation, so installing
// it cannot change event order, a counter or a golden.
package storetest

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
)

// published is one event as the store published it, beside the canary's
// private copy of its snapshot.
type published struct {
	ev    store.Event
	want  api.Object
	epoch int64 // store restart epoch at publication
}

// Canary detects mutation of the store's shared snapshots.
type Canary struct {
	t    testing.TB
	st   *store.Store
	seen []published
	last map[string]int // object key → index in seen of its latest event
	// reported holds the snapshots already failed on, so the cleanup's Check
	// does not repeat what an explicit one said.
	reported map[api.Object]bool
}

// Install attaches a canary to st and registers its Check as a test
// cleanup, so it runs after the test body has driven the simulation to
// quiescence. It covers what the store publishes from here on.
func Install(t testing.TB, st *store.Store) *Canary {
	t.Helper()
	c := &Canary{t: t, st: st, last: make(map[string]int), reported: make(map[api.Object]bool)}
	st.OnPublish(func(ev store.Event) {
		c.last[api.Key(ev.Object)] = len(c.seen)
		c.seen = append(c.seen, published{ev: ev, want: ev.Object.DeepCopyObject(), epoch: st.Epoch()})
	})
	t.Cleanup(c.Check)
	return c
}

// Check fails the test for every shared snapshot that no longer equals the
// private copy taken when it was published — naming the kind, name and
// revision and the fields that moved — and for every current object the
// store holds under a different pointer than the one it published (there is
// exactly one object per revision). Snapshots a restart decoded from the
// durable medium were never published and are checked only once rewritten.
// Check may also be called early; each finding is reported once.
func (c *Canary) Check() {
	c.t.Helper()
	checked := make(map[api.Object]bool)
	kinds := make(map[string]bool)
	for _, p := range c.seen {
		obj := p.ev.Object
		kinds[obj.Kind()] = true
		if checked[obj] {
			continue // a Deleted event re-delivers the last published snapshot
		}
		checked[obj] = true
		if !c.reported[obj] && !reflect.DeepEqual(obj, p.want) {
			c.reported[obj] = true
			c.t.Errorf("storetest: shared snapshot of %s published at rev %d (%s) was mutated: %s",
				api.Key(p.want), p.ev.Rev, p.ev.Type,
				strings.Join(diff("", reflect.ValueOf(obj), reflect.ValueOf(p.want)), "; "))
		}
	}
	epoch := c.st.Epoch()
	for _, kind := range sortedKeys(kinds) {
		c.st.Scan(kind, func(obj api.Object) bool {
			i, ok := c.last[api.Key(obj)]
			if !ok {
				return true
			}
			p := c.seen[i]
			if p.epoch == epoch && p.ev.Type != store.Deleted &&
				p.ev.Rev == obj.GetMeta().ResourceVersion && p.ev.Object != obj && !c.reported[obj] {
				c.reported[obj] = true
				c.t.Errorf("storetest: store holds %s rev %d under a different pointer than it published",
					api.Key(obj), p.ev.Rev)
			}
			return true
		})
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// diff lists the leaf fields at which have and want differ, as
// "Status.Phase: have Failed, published Pending".
func diff(path string, have, want reflect.Value) []string {
	if have.IsValid() != want.IsValid() || (have.IsValid() && have.Type() != want.Type()) {
		return []string{fmt.Sprintf("%s: have %s, published %s", path, show(have), show(want))}
	}
	if !have.IsValid() || reflect.DeepEqual(have.Interface(), want.Interface()) {
		return nil
	}
	switch have.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !have.IsNil() && !want.IsNil() {
			return diff(path, have.Elem(), want.Elem())
		}
	case reflect.Struct:
		var out []string
		for i := 0; i < have.NumField(); i++ {
			f := have.Type().Field(i)
			sub := f.Name
			if f.Anonymous {
				sub = "" // promoted fields read as the object's own
			}
			out = append(out, diff(join(path, sub), have.Field(i), want.Field(i))...)
		}
		return out
	case reflect.Map:
		var out []string
		keys := map[string]reflect.Value{}
		for _, k := range append(have.MapKeys(), want.MapKeys()...) {
			keys[fmt.Sprint(k)] = k
		}
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			out = append(out, diff(fmt.Sprintf("%s[%s]", path, k), have.MapIndex(keys[k]), want.MapIndex(keys[k]))...)
		}
		return out
	case reflect.Slice, reflect.Array:
		if have.Len() == want.Len() {
			var out []string
			for i := 0; i < have.Len(); i++ {
				out = append(out, diff(fmt.Sprintf("%s[%d]", path, i), have.Index(i), want.Index(i))...)
			}
			return out
		}
	}
	return []string{fmt.Sprintf("%s: have %s, published %s", path, show(have), show(want))}
}

// show renders a value for the diff; a map entry one side lacks is invalid.
func show(v reflect.Value) string {
	if !v.IsValid() {
		return "<absent>"
	}
	return fmt.Sprintf("%v", v)
}

func join(path, field string) string {
	if path == "" || field == "" {
		return path + field
	}
	return path + "." + field
}
