package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Comparison operators for alert rules.
const (
	OpAbove = ">"
	OpBelow = "<"
)

// AlertRule is one declarative SLO condition, evaluated periodically on the
// virtual clock against every labeled child of Metric. The signal is chosen
// by the metric's type: histograms are judged by Quantile over the
// observations of the last evaluation window (a windowed delta, not the
// lifetime distribution), counters by their per-second rate over the
// window, and gauges/float gauges by instantaneous value.
type AlertRule struct {
	// Name is the CamelCase alert reason, e.g. "TokenWaitP99High"; it
	// becomes the Reason of the emitted events.
	Name string
	// Metric is the family the rule watches.
	Metric string
	// Quantile selects the windowed order statistic for histogram metrics
	// (e.g. 0.99); ignored for other metric types.
	Quantile float64
	// Op compares the signal against Threshold: OpAbove or OpBelow.
	Op string
	// Threshold is the SLO boundary.
	Threshold float64
	// For is how long the condition must hold continuously before the
	// alert fires — transient excursions shorter than For never emit.
	For time.Duration
}

// AlertStatus is the externally visible state of one (rule, labeled child)
// pair.
type AlertStatus struct {
	Rule      string  `json:"rule"`
	Metric    string  `json:"metric"`
	Labels    []Label `json:"labels,omitempty"`
	State     string  `json:"state"` // "inactive", "pending" or "firing"
	Value     float64 `json:"value"` // last evaluated signal
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	// Since is when the condition started holding (pending/firing only).
	Since time.Duration `json:"since,omitempty"`
}

// alertState tracks one (rule, child) pair across evaluations.
type alertState struct {
	labels       []Label
	pendingSince time.Duration
	pending      bool
	firing       bool
	value        float64
}

// AlertEngine evaluates a rule set against the registry on the virtual
// clock and emits deduplicated events on state transitions only: one
// Warning when a rule starts firing, one Normal when it resolves. Repeated
// evaluations of a firing rule stay silent (the apiserver event sink
// additionally collapses repeats by count, k8s-style).
type AlertEngine struct {
	reg      *Registry
	rules    []AlertRule
	recorder *Recorder

	states   map[string]*alertState       // rule name + rendered labels
	prevHist map[string]HistogramSnapshot // metric + rendered labels
	prevCtr  map[string]int64
	lastEval time.Duration
}

// NewAlertEngine builds an engine over the runtime's registry; its events
// carry the "slo" source. A nil runtime yields a nil engine whose methods
// no-op, matching the rest of the obs surface.
func NewAlertEngine(rt *Runtime, rules []AlertRule) *AlertEngine {
	if rt == nil {
		return nil
	}
	return &AlertEngine{
		reg:      rt.Registry(),
		rules:    rules,
		recorder: rt.EventSource("slo"),
		states:   map[string]*alertState{},
		prevHist: map[string]HistogramSnapshot{},
		prevCtr:  map[string]int64{},
	}
}

// Evaluate runs every rule once against a fresh registry snapshot at
// virtual time now. Callers drive it periodically (the tsdb collector's
// sampler hook in the experiment harness and serve mode).
func (e *AlertEngine) Evaluate(now time.Duration) {
	if e == nil {
		return
	}
	snap := e.reg.Snapshot()
	interval := now - e.lastEval
	for _, r := range e.rules {
		for _, sig := range e.signals(r, snap, interval) {
			e.apply(r, sig, now)
		}
	}
	// Remember histogram/counter baselines for the next window.
	for _, h := range snap.Histograms {
		e.prevHist[h.Name+FormatLabels(h.Labels)] = h
	}
	for _, c := range snap.Counters {
		e.prevCtr[c.Name+FormatLabels(c.Labels)] = c.Value
	}
	e.lastEval = now
}

// signal is one evaluated (labels, value) pair; ok=false means the child
// produced no observations this window, which never changes alert state.
type signal struct {
	labels []Label
	value  float64
	ok     bool
}

// signals extracts the rule's signal from every matching labeled child.
func (e *AlertEngine) signals(r AlertRule, snap MetricsSnapshot, interval time.Duration) []signal {
	var out []signal
	for _, h := range snap.Histograms {
		if h.Name != r.Metric {
			continue
		}
		prev := e.prevHist[h.Name+FormatLabels(h.Labels)]
		delta := histDelta(h, prev)
		out = append(out, signal{h.Labels, delta.Quantile(r.Quantile), delta.Count > 0})
	}
	if out != nil {
		return out
	}
	for _, f := range snap.Floats {
		if f.Name == r.Metric {
			out = append(out, signal{f.Labels, f.Value, true})
		}
	}
	if out != nil {
		return out
	}
	for _, g := range snap.Gauges {
		if g.Name == r.Metric {
			out = append(out, signal{nil, float64(g.Value), true})
		}
	}
	if out != nil {
		return out
	}
	for _, c := range snap.Counters {
		if c.Name != r.Metric || interval <= 0 {
			continue
		}
		dv := c.Value - e.prevCtr[c.Name+FormatLabels(c.Labels)]
		out = append(out, signal{c.Labels, float64(dv) / interval.Seconds(), true})
	}
	return out
}

// histDelta returns the histogram of observations made since prev.
func histDelta(cur, prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Name:   cur.Name,
		Labels: cur.Labels,
		Count:  cur.Count - prev.Count,
		Sum:    cur.Sum - prev.Sum,
		Bounds: cur.Bounds,
		Counts: make([]int64, len(cur.Counts)),
	}
	for i := range cur.Counts {
		d.Counts[i] = cur.Counts[i]
		if i < len(prev.Counts) {
			d.Counts[i] -= prev.Counts[i]
		}
	}
	return d
}

// apply advances one child's state machine and emits transition events.
func (e *AlertEngine) apply(r AlertRule, sig signal, now time.Duration) {
	key := r.Name + FormatLabels(sig.labels)
	st, found := e.states[key]
	if !found {
		st = &alertState{labels: sig.labels}
		e.states[key] = st
	}
	if sig.ok {
		st.value = sig.value
	}
	breach := sig.ok && ((r.Op == OpAbove && sig.value > r.Threshold) ||
		(r.Op == OpBelow && sig.value < r.Threshold))
	switch {
	case breach && !st.firing:
		if !st.pending {
			st.pending = true
			st.pendingSince = now
		}
		if now-st.pendingSince >= r.For {
			st.firing = true
			e.recorder.Eventf("SLO", key, EventWarning, r.Name,
				"%s%s = %.6g, SLO %s %.6g for %v", r.Metric, FormatLabels(sig.labels),
				sig.value, r.Op, r.Threshold, r.For)
		}
	case !breach && st.firing:
		st.firing, st.pending = false, false
		e.recorder.Eventf("SLO", key, EventNormal, r.Name+"Resolved",
			"%s%s = %.6g back within SLO %s %.6g", r.Metric, FormatLabels(sig.labels),
			sig.value, r.Op, r.Threshold)
	case !breach:
		st.pending = false
	}
}

// States returns the status of every tracked (rule, child) pair, sorted by
// rule then labels — the /alerts endpoint payload.
func (e *AlertEngine) States() []AlertStatus {
	if e == nil {
		return nil
	}
	keys := make([]string, 0, len(e.states))
	for k := range e.states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]AlertStatus, 0, len(keys))
	for _, k := range keys {
		st := e.states[k]
		var r AlertRule
		for _, rule := range e.rules {
			if rule.Name+FormatLabels(st.labels) == k {
				r = rule
				break
			}
		}
		s := AlertStatus{
			Rule: r.Name, Metric: r.Metric, Labels: st.labels,
			State: "inactive", Value: st.value, Op: r.Op, Threshold: r.Threshold,
		}
		switch {
		case st.firing:
			s.State, s.Since = "firing", st.pendingSince
		case st.pending:
			s.State, s.Since = "pending", st.pendingSince
		}
		out = append(out, s)
	}
	return out
}

// FormatAlerts writes the alert states as stable text, one line each.
func FormatAlerts(w io.Writer, states []AlertStatus) {
	for _, s := range states {
		fmt.Fprintf(w, "%-8s %s%s %s %.6g %s %.6g\n",
			s.State, s.Rule, FormatLabels(s.Labels), s.Metric, s.Value, s.Op, s.Threshold)
	}
}

// DefaultSLORules is the KubeShare rule set: the paper's own evaluation
// targets expressed as SLOs. Thresholds are tuned so a saturated sharing
// workload (the Fig 9 mix) deterministically exercises at least the
// token-wait rule.
func DefaultSLORules() []AlertRule {
	return []AlertRule{
		{
			// Token-wait tail: a client should not wait more than a handful
			// of scheduling quotas for the compute token.
			Name: "TokenWaitP99High", Metric: "kubeshare_devlib_token_wait_seconds",
			Quantile: 0.99, Op: OpAbove, Threshold: 0.200, For: 5 * time.Second,
		},
		{
			// End-to-end scheduling latency from submission to decision.
			Name: "SchedLatencyP99High", Metric: "kubeshare_sched_latency_seconds",
			Quantile: 0.99, Op: OpAbove, Threshold: 2.0, For: 5 * time.Second,
		},
		{
			// Allocated vGPUs should not sit idle: utilization floor per GPU.
			Name: "GPUUtilizationLow", Metric: "kubeshare_gpu_utilization_ratio",
			Op: OpBelow, Threshold: 0.02, For: 30 * time.Second,
		},
		{
			// A tenant pinned far below its guaranteed request is starving.
			Name: "TenantStarved", Metric: "kubeshare_tenant_token_share_ratio",
			Op: OpBelow, Threshold: 0.10, For: 30 * time.Second,
		},
	}
}
