package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): one `# TYPE` header per family
// followed by its samples, histograms expanded into cumulative `_bucket`
// series plus `_sum` and `_count`. The snapshot is already sorted by
// (name, labels), so families come out contiguous and the output is
// byte-deterministic for a seeded run.
func WritePrometheus(w io.Writer, snap MetricsSnapshot) error {
	lastType := ""
	header := func(name, typ string) {
		if name+typ == lastType {
			return
		}
		lastType = name + typ
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	}
	for _, c := range snap.Counters {
		header(c.Name, "counter")
		fmt.Fprintf(w, "%s%s %d\n", c.Name, FormatLabels(c.Labels), c.Value)
	}
	for _, g := range snap.Gauges {
		header(g.Name, "gauge")
		fmt.Fprintf(w, "%s %d\n", g.Name, g.Value)
	}
	for _, f := range snap.Floats {
		header(f.Name, "gauge")
		fmt.Fprintf(w, "%s%s %s\n", f.Name, FormatLabels(f.Labels), formatFloat(f.Value))
	}
	for _, h := range snap.Histograms {
		header(h.Name, "histogram")
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, withLE(h.Labels, formatFloat(bound)), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, withLE(h.Labels, "+Inf"), h.Count)
		fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, FormatLabels(h.Labels), formatFloat(h.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", h.Name, FormatLabels(h.Labels), h.Count)
	}
	return nil
}

// withLE renders labels with the histogram bucket boundary appended as the
// conventional trailing "le" label.
func withLE(labels []Label, le string) string {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	out = append(out, Label{Key: "le", Value: le})
	return FormatLabels(out)
}

// formatFloat renders a float the shortest way that round-trips, matching
// what Prometheus clients emit.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteSpansNDJSON writes one JSON object per span, newline-delimited —
// the offline-tooling export of the causal trace.
func WriteSpansNDJSON(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsNDJSON writes one JSON object per event record,
// newline-delimited.
func WriteEventsNDJSON(w io.Writer, events []EventRecord) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
