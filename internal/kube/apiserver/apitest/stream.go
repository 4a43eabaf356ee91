// Package apitest is test support for the reflector's stream contract: what
// each reflector hands its consumer must be a faithful account of the store.
// Import it from _test.go files only.
//
// The StreamCheck records every event each reflector delivers — through
// apiserver.Server.OnDeliver, so it adds no proc, no queue and no wake-up to
// the simulation, and installing it cannot change event order, a counter or
// a golden. It checks two things. Per reflector and object, the delivered
// revisions rise, except where a torn-tail restore reverted the revision last
// delivered (then the next may be lower, or equal and another write) or a
// relist re-sent the write last delivered. At
// quiescence, each live reflector's last-delivered view equals the store's
// filtered state by content (the objects' binary encoding), and so does what
// the reflector's Cached returns.
package apitest

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
)

// delivered is the last event a reflector handed its consumer for one name,
// with the restart epoch of the subscription it came through.
type delivered struct {
	ev    store.Event
	epoch int64
}

// StreamCheck checks what every reflector of one server delivers.
type StreamCheck struct {
	t       testing.TB
	srv     *apiserver.Server
	streams map[*apiserver.Reflector]map[string]delivered
	// reported holds the findings already made, so the cleanup's Check does
	// not repeat what an explicit one said.
	reported map[string]bool
}

// Install attaches a stream check to srv and registers its Check as a test
// cleanup, so it runs after the test body has driven the simulation to
// quiescence. Install before the first reflector starts: a view the check
// has not seen from its first event cannot be compared.
func Install(t testing.TB, srv *apiserver.Server) *StreamCheck {
	t.Helper()
	c := &StreamCheck{t: t, srv: srv, streams: make(map[*apiserver.Reflector]map[string]delivered), reported: make(map[string]bool)}
	srv.OnDeliver(c.deliver)
	t.Cleanup(c.Check)
	return c
}

// deliver checks one event against the last one delivered for its object.
func (c *StreamCheck) deliver(r *apiserver.Reflector, ev store.Event) {
	view := c.streams[r]
	if view == nil {
		view = make(map[string]delivered)
		c.streams[r] = view
	}
	name := ev.Object.GetMeta().Name
	now := delivered{ev: ev, epoch: r.Epoch()}
	if ev.Type != store.Deleted && ev.Rev != ev.Object.GetMeta().ResourceVersion {
		c.errorf("%s delivered %s %s at rev %d carrying rev %d", r, ev.Type, name, ev.Rev, ev.Object.GetMeta().ResourceVersion)
	}
	if last, ok := view[name]; ok && ev.Rev <= last.ev.Rev && !c.reverted(last, now) && !resent(last, now) {
		c.errorf("%s delivered %s %s at rev %d after %s at rev %d, and no restore since reverted that",
			r, ev.Type, name, ev.Rev, last.ev.Type, last.ev.Rev)
	}
	view[name] = now
}

// resent reports whether now is last again, sent by a relist in a later
// epoch: a restart that reverted writes the stream never delivered makes
// the relist re-send every survivor.
func resent(last, now delivered) bool {
	return last.epoch < now.epoch && now.ev.Type == store.Modified &&
		now.ev.Rev == last.ev.Rev && sameContent(last.ev.Object, now.ev.Object)
}

// reverted reports whether a restore between last's subscription and now's
// restored the store to below last's revision: a torn tail cut it off, and
// the writes since may reuse its revision.
func (c *StreamCheck) reverted(last, now delivered) bool {
	return last.epoch < now.epoch && c.srv.Store().RestoredFloor(last.epoch, now.epoch) < last.ev.Rev
}

// Check fails the test for every live reflector whose last-delivered view
// differs from the store's filtered state: an object missing from it, one it
// holds that the store does not, or one whose content differs. It also fails
// when Cached disagrees with the view. Check may be called early, but only a
// quiescent cluster — every event delivered — must pass.
func (c *StreamCheck) Check() {
	c.t.Helper()
	for _, r := range c.srv.Reflectors("") {
		view := c.streams[r]
		opts := r.Options()
		c.srv.Store().Scan(r.Kind(), func(obj api.Object) bool {
			if !opts.Matches(obj) {
				return true
			}
			name := obj.GetMeta().Name
			last, ok := view[name]
			switch {
			case !ok || last.ev.Type == store.Deleted:
				c.errorf("%s never delivered %s rev %d", r, name, obj.GetMeta().ResourceVersion)
				return true
			case !sameContent(last.ev.Object, obj):
				c.errorf("%s last delivered %s at rev %d, the store holds other content at rev %d",
					r, name, last.ev.Rev, obj.GetMeta().ResourceVersion)
			}
			if cached, ok := r.Cached(name); !ok || !sameContent(cached, obj) {
				c.errorf("%s caches %s other than the store holds", r, name)
			}
			return true
		})
		for _, name := range slices.Sorted(maps.Keys(view)) {
			if last := view[name]; last.ev.Type != store.Deleted {
				if obj, err := c.srv.Store().Get(r.Kind(), name); err != nil || !opts.Matches(obj) {
					c.errorf("%s still holds %s rev %d, which the store no longer lists", r, name, last.ev.Rev)
				}
			}
		}
	}
}

// errorf fails the test with a finding not reported before.
func (c *StreamCheck) errorf(format string, args ...any) {
	c.t.Helper()
	if msg := fmt.Sprintf(format, args...); !c.reported[msg] {
		c.reported[msg] = true
		c.t.Error("apitest: " + msg)
	}
}

// sameContent reports whether a and b encode to the same bytes.
func sameContent(a, b api.Object) bool {
	return a == b || bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
}
