package apiserver

import (
	"fmt"
	"strconv"
	"strings"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/obs"
)

// Events returns the typed Event client. Events are ordinary stored
// objects: they can be listed, watched and reflected like any resource.
func Events(s *Server) Client[*api.Event] { return NewClient[*api.Event](s, api.KindEvent) }

// eventSink persists obs event records as api.Event objects. Repeats of
// the same event — same involved object, reason, source and type — are
// deduplicated Kubernetes-style into one object whose Count climbs and
// whose LastTime/Message track the latest occurrence, so a hot loop
// (say a throttled tenant) yields one object updated in place rather
// than unbounded store growth.
type eventSink struct {
	srv   *Server
	names map[string]string // dedup key -> stored object name
	seq   int
}

func newEventSink(s *Server) *eventSink {
	k := &eventSink{srv: s, names: map[string]string{}}
	// A sink recreated over a store that already holds events (an apiserver
	// restart, or a chaos-recovered control plane) must keep deduplicating
	// into the objects already there and must not reissue their names.
	Events(s).Scan(func(e *api.Event) bool {
		key := e.InvolvedKind + "/" + e.InvolvedName + "/" + e.Reason + "/" + e.Source + "/" + e.Type
		k.names[key] = e.Name
		if num, ok := strings.CutPrefix(e.Name, "evt-"); ok {
			if n, err := strconv.Atoi(num); err == nil && n > k.seq {
				k.seq = n
			}
		}
		return true
	})
	return k
}

// RecordEvent implements obs.Sink.
func (k *eventSink) RecordEvent(e obs.EventRecord) {
	key := e.Kind + "/" + e.Name + "/" + e.Reason + "/" + e.Source + "/" + e.Type
	evs := Events(k.srv)
	if name, ok := k.names[key]; ok {
		if _, err := evs.Mutate(name, func(cur *api.Event) error {
			cur.Count++
			cur.LastTime = e.Time
			cur.Message = e.Message
			return nil
		}); err == nil || !IsNotFound(err) {
			return
		}
		// The stored object vanished (e.g. a test cleared the store);
		// fall through and recreate it.
		delete(k.names, key)
	}
	k.seq++
	name := fmt.Sprintf("evt-%05d", k.seq)
	_, err := evs.Create(&api.Event{
		ObjectMeta:   api.ObjectMeta{Name: name},
		InvolvedKind: e.Kind, InvolvedName: e.Name,
		Type: e.Type, Reason: e.Reason, Source: e.Source, Message: e.Message,
		Count: 1, FirstTime: e.Time, LastTime: e.Time,
	})
	if err == nil {
		k.names[key] = name
	}
}
