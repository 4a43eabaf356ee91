// Package tsdb is the repository's single time-series representation: an
// append-only series of (virtual time, value) samples, optionally bounded to
// a fixed capacity with mean-preserving compaction, and a small database of
// labeled series fed by a periodic collector that scrapes the telemetry
// registry (see collector.go). internal/metrics aliases its Series/Point
// types onto this package, so experiment tables, charts and the export
// surface all draw from the same substrate.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"kubeshare/internal/obs"
)

// Point is one sample of a time series, at virtual time T.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only time series. Samples must be appended in
// nondecreasing time order (the clock of a discrete-event simulation never
// runs backwards). The zero value — and any literal construction setting
// just Name/Points — is an unbounded series; NewSeries with a capacity
// returns a bounded one that compacts in place instead of growing.
type Series struct {
	Name   string
	Labels []obs.Label
	Points []Point

	// capacity bounds len(Points); 0 means unbounded. When an Add would
	// exceed it, the series halves itself by merging adjacent point pairs
	// into weighted means, so retained resolution degrades gracefully (the
	// oldest data has been through the most merges) while every retained
	// point stays the exact mean of a contiguous block of raw samples.
	capacity int
	// weights[i] is the number of raw samples merged into Points[i]; nil
	// until the first compaction (meaning: all weight 1).
	weights []int64
}

// NewSeries returns a series bounded to capacity points (rounded up to an
// even minimum of 2); capacity 0 means unbounded.
func NewSeries(name string, labels []obs.Label, capacity int) *Series {
	if capacity > 0 {
		if capacity < 2 {
			capacity = 2
		}
		capacity += capacity % 2
	}
	return &Series{Name: name, Labels: labels, capacity: capacity}
}

// Add appends a sample. It panics when t is before the last sample, which
// would indicate a harness bug.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("tsdb: out-of-order sample on %q: %v < %v", s.Name, t, s.Points[n-1].T))
	}
	if s.capacity > 0 && len(s.Points) >= s.capacity {
		s.compact()
	}
	s.Points = append(s.Points, Point{t, v})
	if s.weights != nil {
		s.weights = append(s.weights, 1)
	}
}

// compact merges adjacent point pairs into weighted means, halving the
// series. Times use float64 intermediates: a nanosecond-scale rounding error
// is irrelevant for telemetry and the arithmetic stays deterministic, while
// int64 products of time and weight could overflow.
func (s *Series) compact() {
	if s.weights == nil {
		s.weights = make([]int64, len(s.Points))
		for i := range s.weights {
			s.weights[i] = 1
		}
	}
	n := len(s.Points)
	half := n / 2
	for i := 0; i < half; i++ {
		a, b := s.Points[2*i], s.Points[2*i+1]
		wa, wb := float64(s.weights[2*i]), float64(s.weights[2*i+1])
		s.Points[i] = Point{
			T: time.Duration((float64(a.T)*wa + float64(b.T)*wb) / (wa + wb)),
			V: (a.V*wa + b.V*wb) / (wa + wb),
		}
		s.weights[i] = s.weights[2*i] + s.weights[2*i+1]
	}
	if n%2 == 1 {
		s.Points[half] = s.Points[n-1]
		s.weights[half] = s.weights[n-1]
		half++
	}
	s.Points = s.Points[:half]
	s.weights = s.weights[:half]
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.Points) }

// Max returns the maximum retained value, or 0 for an empty series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// TimeWeightedMean treats the series as a step function (each sample holds
// until the next) and returns its average over [from, to].
func (s *Series) TimeWeightedMean(from, to time.Duration) float64 {
	if to <= from || len(s.Points) == 0 {
		return 0
	}
	var acc float64
	cur := 0.0
	last := from
	for _, p := range s.Points {
		if p.T <= from {
			cur = p.V
			continue
		}
		if p.T >= to {
			break
		}
		acc += cur * float64(p.T-last)
		cur = p.V
		last = p.T
	}
	acc += cur * float64(to-last)
	return acc / float64(to-from)
}

// Downsample returns an unbounded copy of the series averaged into buckets
// of width w (retained-point average per bucket, stamped at the bucket
// start), for compact printing of long timelines.
func (s *Series) Downsample(w time.Duration) *Series {
	out := &Series{Name: s.Name, Labels: s.Labels}
	if w <= 0 || len(s.Points) == 0 {
		out.Points = append(out.Points, s.Points...)
		return out
	}
	var bucket time.Duration
	sum, n := 0.0, 0
	flush := func() {
		if n > 0 {
			out.Points = append(out.Points, Point{bucket, sum / float64(n)})
		}
		sum, n = 0, 0
	}
	for _, p := range s.Points {
		b := p.T / w * w
		if n > 0 && b != bucket {
			flush()
		}
		bucket = b
		sum += p.V
		n++
	}
	flush()
	return out
}

// Between returns a copy of the points with from ≤ T ≤ to.
func (s *Series) Between(from, to time.Duration) []Point {
	lo := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= from })
	hi := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > to })
	if hi <= lo {
		return nil
	}
	return append([]Point(nil), s.Points[lo:hi]...)
}

// DB is a collection of labeled bounded series, keyed by metric name plus
// label set. Map access is guarded for concurrent readers (the serve-mode
// HTTP handlers hold their own lock around sim stepping, but listing series
// must also be safe against a collector tick); appending to an individual
// series is sim-confined and not locked here.
type DB struct {
	capacity int

	mu     sync.Mutex
	series map[string]*Series
	order  []string
}

// NewDB returns an empty database whose series are bounded to capacity
// points each (0 = unbounded).
func NewDB(capacity int) *DB {
	return &DB{capacity: capacity, series: make(map[string]*Series)}
}

// Series returns the series for name and labels, creating it bounded to the
// database capacity on first use.
func (db *DB) Series(name string, labels ...obs.Label) *Series {
	key := name + obs.FormatLabels(labels)
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[key]
	if !ok {
		s = NewSeries(name, labels, db.capacity)
		db.series[key] = s
		db.order = append(db.order, key)
	}
	return s
}

// All returns every series, sorted by name then rendered labels.
func (db *DB) All() []*Series {
	db.mu.Lock()
	keys := append([]string(nil), db.order...)
	db.mu.Unlock()
	sort.Strings(keys)
	out := make([]*Series, len(keys))
	for i, k := range keys {
		db.mu.Lock()
		out[i] = db.series[k]
		db.mu.Unlock()
	}
	return out
}

// Select returns every series of one metric family, sorted by rendered
// labels.
func (db *DB) Select(name string) []*Series {
	var out []*Series
	for _, s := range db.All() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Names returns the distinct metric names, sorted.
func (db *DB) Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range db.All() {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	return out
}
