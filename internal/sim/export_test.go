package sim

import (
	"fmt"
	"sort"
	"time"
)

// Accessors and a trace sink that only this package's tests read.

// SetTracer installs a trace sink invoked by Proc.Tracef, Env.tracef and a
// proc's finish. A nil tracer (the default) disables tracing.
func (env *Env) SetTracer(fn func(t time.Duration, format string, args ...any)) {
	env.tracer = fn
}

// Tracef emits a trace line through the environment's tracer, prefixed with
// the proc name.
func (p *Proc) Tracef(format string, args ...any) {
	if p.env.tracer != nil {
		p.env.tracef("[%s] "+format, append([]any{p.name}, args...)...)
	}
}

// Pending returns the number of live (non-cancelled) events in the queue.
func (env *Env) Pending() int { return env.pending }

// Snapshot returns a sorted description of pending events.
func (env *Env) Snapshot() []string {
	var out []string
	add := func(e *entry) {
		if env.items[e.slot].cancelled {
			return
		}
		out = append(out, fmt.Sprintf("t=%v seq=%d", e.t, e.seq))
	}
	for i := 0; i < env.ring.n; i++ {
		add(&env.ring.buf[(env.ring.head+i)&(len(env.ring.buf)-1)])
	}
	if env.headValid {
		add(&env.head)
	}
	for i := range env.heap {
		add(&env.heap[i])
	}
	sort.Strings(out)
	return out
}

// Value returns the value the event was triggered with (nil before firing).
func (e *Event) Value() any { return e.val }

// ID returns the proc's unique id within its Env.
func (p *Proc) ID() int { return p.id }
