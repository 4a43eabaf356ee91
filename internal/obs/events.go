package obs

import (
	"fmt"
	"io"
	"time"
)

// Event types, mirroring Kubernetes.
const (
	EventNormal  = "Normal"
	EventWarning = "Warning"
)

// EventRecord is one emitted event: what happened (Reason/Message), to
// which object (Kind/Name), reported by whom (Source), at what virtual
// time. The runtime keeps an ordered in-memory log of every record, and
// that log is the only place events live: recording one writes nothing to
// the cluster it describes.
type EventRecord struct {
	Time    time.Duration `json:"time_ns"`
	Kind    string        `json:"kind"`   // involved object kind, e.g. "SharePod", "Node", "GPU"
	Name    string        `json:"name"`   // involved object name
	Type    string        `json:"type"`   // EventNormal or EventWarning
	Reason  string        `json:"reason"` // short CamelCase machine-readable cause
	Source  string        `json:"source"` // emitting component, e.g. "kubelet/node-1"
	Message string        `json:"message"`
}

// Events returns a copy of the ordered event log.
func (r *Runtime) Events() []EventRecord {
	if r == nil {
		return nil
	}
	out := make([]EventRecord, 0, r.events.n)
	for _, page := range r.events.pages {
		out = append(out, page...)
	}
	return out
}

// Recorder emits events stamped with a fixed source component.
type Recorder struct {
	rt     *Runtime
	source string
}

// EventSource returns a recorder that stamps events with source.
func (r *Runtime) EventSource(source string) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{rt: r, source: source}
}

// Event records an event about the object (kind, name); its message is the
// concatenation of the fragments, copied into the runtime's message pages.
func (rec *Recorder) Event(kind, name, etype, reason string, msg ...string) {
	if rec == nil {
		return
	}
	rt := rec.rt
	rt.events.add(EventRecord{
		Time: rt.env.Now(),
		Kind: kind, Name: name,
		Type: etype, Reason: reason, Source: rec.source,
		Message: rt.msgs.join(msg),
	})
}

// FormatEvents writes the event log as stable text, one line per event.
func FormatEvents(w io.Writer, evs []EventRecord) {
	for _, e := range evs {
		fmt.Fprintf(w, "[%9.3fs] %-7s %-22s %s/%s (%s) %s\n",
			e.Time.Seconds(), e.Type, e.Reason, e.Kind, e.Name, e.Source, e.Message)
	}
}
