package experiments

import (
	"fmt"
	"io"

	"kubeshare/internal/metrics"
)

// Scale selects which of its two runs an experiment makes. Each figure's
// file defines both runs' parameters once; nothing else sizes a figure.
type Scale int

const (
	// Quick shrinks the clusters and workloads (the Figure 8 family to 2×4
	// GPUs and roughly a quarter of the paper's jobs) for fast iteration.
	// The tests assert on the quick runs.
	Quick Scale = iota
	// Full is the paper's 8-node × 4-GPU testbed and 5-run averages.
	Full
)

// String returns the scale's command-line name.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// ParseScale reads a scale's command-line name.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q", name)
}

// Experiment is one entry of the registry.
type Experiment struct {
	// Name is what kubeshare-sim takes on its command line.
	Name string
	// Run makes the experiment's run at scale s with seed (unseeded
	// experiments ignore it), writes what the figure shows beside its
	// table — timeline charts, Figure 18's memory table — to w, and
	// returns the table.
	Run func(w io.Writer, s Scale, seed int64) (*metrics.Table, error)
	// HostTime names the table's columns read from the host clock. Every
	// other cell is a function of the scale and the seed.
	HostTime []string
	// NotInAll marks an entry `kubeshare-sim all` leaves out; it runs only
	// by name.
	NotInAll bool
}

// Registry is every experiment: the paper's table and figures in the order
// `kubeshare-sim all` runs them, then the latency percentiles.
var Registry = []Experiment{
	{Name: "table1", Run: func(io.Writer, Scale, int64) (*metrics.Table, error) { return Table1() }},
	{Name: "fig5", Run: func(_ io.Writer, _ Scale, seed int64) (*metrics.Table, error) { return Fig5(seed) }},
	{Name: "fig6", Run: func(w io.Writer, s Scale, _ int64) (*metrics.Table, error) {
		res, err := Fig6(s)
		if err != nil {
			return nil, err
		}
		res.Chart().Render(w)
		return res.Table, nil
	}},
	{Name: "fig7", Run: func(_ io.Writer, s Scale, _ int64) (*metrics.Table, error) { return Fig7(s) }},
	{Name: "fig8a", Run: func(_ io.Writer, s Scale, seed int64) (*metrics.Table, error) { return Fig8a(s, seed) }},
	{Name: "fig8b", Run: func(_ io.Writer, s Scale, seed int64) (*metrics.Table, error) { return Fig8b(s, seed) }},
	{Name: "fig8c", Run: func(_ io.Writer, s Scale, seed int64) (*metrics.Table, error) { return Fig8c(s, seed) }},
	{Name: "fig9", Run: func(w io.Writer, s Scale, seed int64) (*metrics.Table, error) {
		res, err := Fig9(s, seed)
		if err != nil {
			return nil, err
		}
		res.renderCharts(w)
		return res.Table, nil
	}},
	{Name: "fig10", Run: func(_ io.Writer, s Scale, _ int64) (*metrics.Table, error) { return Fig10(s) }},
	{Name: "fig11", HostTime: []string{"mean_decision_us"},
		Run: func(io.Writer, Scale, int64) (*metrics.Table, error) { return Fig11() }},
	{Name: "fig12", Run: func(_ io.Writer, s Scale, _ int64) (*metrics.Table, error) { return Fig12(s) }},
	{Name: "fig13", Run: func(_ io.Writer, s Scale, seed int64) (*metrics.Table, error) { return Fig13(s, seed) }},
	{Name: "fig14", Run: func(_ io.Writer, s Scale, seed int64) (*metrics.Table, error) { return Fig14(s, seed) }},
	{Name: "fig15", HostTime: []string{"real_us_per_decision"},
		Run: func(_ io.Writer, s Scale, _ int64) (*metrics.Table, error) { return Fig15(s) }},
	{Name: "fig16", HostTime: []string{"wall_ms"},
		Run: func(_ io.Writer, s Scale, _ int64) (*metrics.Table, error) { return Fig16(s) }},
	{Name: "fig17", Run: func(_ io.Writer, s Scale, seed int64) (*metrics.Table, error) { return Fig17(s, seed) }},
	{Name: "fig18", Run: func(w io.Writer, s Scale, seed int64) (*metrics.Table, error) {
		mem, err := Fig18MemBytes(s, seed)
		if err != nil {
			return nil, err
		}
		mem.Render(w)
		return Fig18(s, seed)
	}},
	{Name: "fig19", Run: func(_ io.Writer, s Scale, seed int64) (*metrics.Table, error) { return Fig19(s, seed) }},
	{Name: "latency", NotInAll: true, Run: func(_ io.Writer, s Scale, seed int64) (*metrics.Table, error) {
		res, err := Latency(s, seed)
		if err != nil {
			return nil, err
		}
		return res.Table, nil
	}},
}

// Lookup returns the registry entry called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
