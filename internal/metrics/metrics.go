// Package metrics renders the experiment harness's results: the time-series
// type the figures sample into (an alias of the tsdb series), and table/CSV
// and ASCII-chart rendering for the figures reproduced from the paper.
package metrics

import "kubeshare/internal/obs/tsdb"

// Point is one sample of a time series, at virtual time T. It is the tsdb
// point type: the repository keeps exactly one time-series representation
// (see internal/obs/tsdb).
type Point = tsdb.Point

// Series is an append-only time series — an alias of the tsdb series, so
// the experiment harness, charts and the telemetry database all share one
// type. The zero value is unbounded; tsdb.NewSeries builds bounded ones.
type Series = tsdb.Series
