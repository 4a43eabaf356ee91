package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/obs"
	"kubeshare/internal/obs/attr"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// LiveConfig parameterizes a live (incrementally stepped) KubeShare run —
// the engine behind `kubeshare-sim serve`, where the simulation is paced
// against the wall clock and its telemetry is scraped over HTTP while it
// runs.
type LiveConfig struct {
	Nodes       int
	GPUsPerNode int
	// Jobs is the workload; empty defaults to the seeded Fig 9 mix.
	Jobs []workload.Job
	// Seed generates the default workload when Jobs is empty.
	Seed int64
	// Scale picks the Fig 9 run whose cluster and workload are the
	// defaults.
	Scale Scale
	// Interval is the telemetry sampling cadence (default 1s).
	Interval time.Duration
}

// Live is a KubeShare run that advances only when Advance is called,
// instead of draining the event loop in one Run. All methods are
// mutex-serialized, so HTTP handlers can read telemetry from other
// goroutines while a pacing loop steps the virtual clock.
type Live struct {
	mu        sync.Mutex
	env       *sim.Env
	cluster   *kube.Cluster
	telemetry *TelemetrySet
	total     int
	err       error
}

// StartLive builds the cluster, installs KubeShare, attaches the telemetry
// consumption layer and submits the workload — without running anything;
// the caller paces the clock with Advance.
func StartLive(cfg LiveConfig) (*Live, error) {
	p := fig9Runs[cfg.Scale]
	if cfg.Nodes == 0 {
		cfg.Nodes = p.nodes
	}
	if cfg.GPUsPerNode == 0 {
		cfg.GPUsPerNode = p.gpusPerNode
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.Jobs == nil {
		cfg.Jobs = p.workload(cfg.Seed)
	}
	env := sim.NewEnv()
	c, err := newCluster(env, cfg.Nodes, cfg.GPUsPerNode, false)
	if err != nil {
		return nil, err
	}
	if _, err := schedfw.Install(c, core.Config{}); err != nil {
		return nil, err
	}
	l := &Live{env: env, cluster: c, total: len(cfg.Jobs)}
	l.telemetry = attachTelemetry(env, c, cfg.Interval, func() bool {
		return l.err != nil || terminatedCount(c, KubeShare) >= l.total
	})
	submitJobs(env, c, KubeShare, cfg.Jobs, &l.err)
	return l, nil
}

// Advance runs the simulation up to now+d on the virtual clock. It returns
// the run's error — a submission the API server refused — once there is one;
// the workload then never completes.
func (l *Live) Advance(d time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.env.RunUntil(l.env.Now() + d)
	return l.err
}

// Now returns the virtual clock.
func (l *Live) Now() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.env.Now()
}

// Done reports whether every submitted job reached a terminal phase.
func (l *Live) Done() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return terminatedCount(l.cluster, KubeShare) >= l.total
}

// WriteMetrics renders the live registry in Prometheus text format.
func (l *Live) WriteMetrics(w io.Writer) error {
	l.mu.Lock()
	snap := l.cluster.Obs.Snapshot()
	l.mu.Unlock()
	return obs.WritePrometheus(w, snap)
}

// seriesJSON is the /series payload: one object per matched series.
type seriesJSON struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	// Points are [virtual seconds, value] pairs.
	Points [][2]float64 `json:"points"`
}

// WriteSeries answers a TSDB range query as JSON: every series of the
// family name, clipped to [from, to] (to ≤ 0 means "now"). An empty name
// lists the known metric names instead.
func (l *Live) WriteSeries(w io.Writer, name string, from, to time.Duration) error {
	l.mu.Lock()
	if to <= 0 {
		to = l.env.Now()
	}
	db := l.telemetry.DB
	l.mu.Unlock()
	if name == "" {
		return json.NewEncoder(w).Encode(db.Names())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := []seriesJSON{}
	for _, s := range db.Select(name) {
		sj := seriesJSON{Name: s.Name, Points: [][2]float64{}}
		if len(s.Labels) > 0 {
			sj.Labels = map[string]string{}
			for _, lb := range s.Labels {
				sj.Labels[lb.Key] = lb.Value
			}
		}
		for _, p := range s.Between(from, to) {
			sj.Points = append(sj.Points, [2]float64{p.T.Seconds(), p.V})
		}
		out = append(out, sj)
	}
	return json.NewEncoder(w).Encode(out)
}

// WriteTrace exports the span log as NDJSON.
func (l *Live) WriteTrace(w io.Writer) error {
	l.mu.Lock()
	spans := l.cluster.Obs.Tracer().Spans()
	l.mu.Unlock()
	return obs.WriteSpansNDJSON(w, spans)
}

// WriteProfile renders the virtual-time profile of the spans recorded so
// far: the attribution phase budget over completed chains plus the flat
// per-(component, op) span profile, or collapsed-stack lines when folded
// is set. Live runs use the node-default token strategy, which tags the
// profile frames.
func (l *Live) WriteProfile(w io.Writer, folded bool) error {
	l.mu.Lock()
	spans := l.cluster.Obs.Tracer().Spans()
	l.mu.Unlock()
	p := attr.BuildProfile(spans, "token")
	if folded {
		p.WriteFolded(w)
	} else {
		p.Format(w)
	}
	return nil
}

// WriteEvents exports the event log as NDJSON.
func (l *Live) WriteEvents(w io.Writer) error {
	l.mu.Lock()
	events := l.cluster.Obs.Events()
	l.mu.Unlock()
	return obs.WriteEventsNDJSON(w, events)
}

// WriteAlerts exports the SLO engine's per-rule states as JSON.
func (l *Live) WriteAlerts(w io.Writer) error {
	l.mu.Lock()
	states := l.telemetry.Alerts.States()
	l.mu.Unlock()
	if states == nil {
		states = []obs.AlertStatus{}
	}
	return json.NewEncoder(w).Encode(states)
}

// WriteAudit renders the fairness auditor's report tables as text.
func (l *Live) WriteAudit(w io.Writer) error {
	l.mu.Lock()
	shares, fairness := l.telemetry.Auditor.Report()
	l.mu.Unlock()
	shares.Render(w)
	fmt.Fprintln(w)
	fairness.Render(w)
	return nil
}
