package tsdb

import (
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Collector periodically scrapes a telemetry registry into a DB: every
// counter, gauge and float gauge becomes a series (labels preserved), and
// every histogram contributes its cumulative count and sum as
// "<name>_count" / "<name>_sum" series — enough to reconstruct windowed
// rates and means by differencing, Prometheus-style.
type Collector struct {
	DB       *DB
	Registry *obs.Registry
	Interval time.Duration
	// Samplers are extra per-tick hooks (GPU utilization from device busy
	// windows, fairness gauges from the auditor). They run before the
	// registry scrape, so gauges they set are captured by the same tick.
	Samplers []func(now time.Duration)
	// Done, when non-nil, is polled each tick; once true the collector
	// takes one final sample and stops, so its periodic wakeups do not keep
	// the simulation alive forever.
	Done func() bool
}

// Scrape takes one sample of everything at virtual time now.
func (c *Collector) Scrape(now time.Duration) {
	for _, fn := range c.Samplers {
		fn(now)
	}
	if c.Registry == nil {
		return
	}
	snap := c.Registry.Snapshot()
	for _, ctr := range snap.Counters {
		c.DB.Series(ctr.Name, ctr.Labels...).Add(now, float64(ctr.Value))
	}
	for _, g := range snap.Gauges {
		c.DB.Series(g.Name).Add(now, float64(g.Value))
	}
	for _, f := range snap.Floats {
		c.DB.Series(f.Name, f.Labels...).Add(now, f.Value)
	}
	for _, h := range snap.Histograms {
		c.DB.Series(h.Name+"_count", h.Labels...).Add(now, float64(h.Count))
		c.DB.Series(h.Name+"_sum", h.Labels...).Add(now, h.Sum)
	}
}

// Start launches the collector's sampling proc on env. It ticks every
// Interval until Done reports true (one final sample is taken at that
// tick); with a nil Done it ticks forever, which only makes sense under
// RunUntil-style stepping.
func (c *Collector) Start(env *sim.Env) {
	env.Go("tsdb-collector", func(p *sim.Proc) {
		for {
			p.Sleep(c.Interval)
			c.Scrape(env.Now())
			if c.Done != nil && c.Done() {
				return
			}
		}
	})
}
