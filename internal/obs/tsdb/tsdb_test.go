package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// TestBoundedSeriesBlockMeans is the wraparound property test: however many
// compactions a bounded series has been through, every retained point must
// be the exact mean (value and time) of a contiguous block of raw samples,
// the blocks must tile the input, and no raw sample may be lost.
func TestBoundedSeriesBlockMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		capacity := 2 * (1 + rng.Intn(16))
		n := 1 + rng.Intn(20*capacity)
		s := NewSeries("x", nil, capacity)
		raw := make([]Point, n)
		now := time.Duration(0)
		for i := range raw {
			now += time.Duration(rng.Intn(1000)) * time.Millisecond
			raw[i] = Point{now, rng.Float64() * 100}
			s.Add(raw[i].T, raw[i].V)
		}
		if s.Len() > capacity {
			t.Fatalf("trial %d: len %d exceeds capacity %d", trial, s.Len(), capacity)
		}
		var total int64
		for i := 0; i < s.Len(); i++ {
			total += weight(s, i)
		}
		if total != int64(n) {
			t.Fatalf("trial %d: weights sum to %d, want %d raw samples", trial, total, n)
		}
		// Reconstruct each point's block from the weights and compare means.
		start := 0
		for i := 0; i < s.Len(); i++ {
			w := int(weight(s, i))
			var sumV, sumT float64
			for _, p := range raw[start : start+w] {
				sumV += p.V
				sumT += float64(p.T)
			}
			if got, want := s.Points[i].V, sumV/float64(w); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("trial %d: point %d value %v, want block mean %v", trial, i, got, want)
			}
			// Each pair-merge truncates the mean time to whole nanoseconds,
			// so allow up to one nanosecond of drift per raw sample merged.
			if got, want := float64(s.Points[i].T), sumT/float64(w); math.Abs(got-want) > float64(w) {
				t.Fatalf("trial %d: point %d time %v, want block mean %v", trial, i, got, want)
			}
			start += w
		}
	}
}

// TestWraparoundMatchesDownsample checks the equivalence between ring
// wraparound and explicit downsampling: at a fixed sampling cadence, the
// values after one compaction equal Downsample's bucket means over the raw
// series, because pair-merge blocks align with time buckets.
func TestWraparoundMatchesDownsample(t *testing.T) {
	const capacity = 64
	const period = time.Second
	rng := rand.New(rand.NewSource(11))
	bounded := NewSeries("x", nil, capacity)
	raw := &Series{Name: "x"}
	for i := 0; i < capacity+1; i++ { // one past capacity: exactly one compaction
		v := rng.Float64()
		ts := time.Duration(i) * period
		bounded.Add(ts, v)
		raw.Add(ts, v)
	}
	down := raw.Downsample(2 * period)
	for i := 0; i < capacity/2; i++ {
		if got, want := bounded.Points[i].V, down.Points[i].V; math.Abs(got-want) > 1e-9 {
			t.Fatalf("point %d: bounded %v, downsample %v", i, got, want)
		}
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order sample")
		}
	}()
	s := &Series{Name: "x"}
	s.Add(2*time.Second, 1)
	s.Add(time.Second, 2)
}

func TestSeriesBetween(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	got := s.Between(3*time.Second, 6*time.Second)
	if len(got) != 4 || got[0].V != 3 || got[3].V != 6 {
		t.Fatalf("Between(3s,6s) = %v", got)
	}
	if s.Between(20*time.Second, 30*time.Second) != nil {
		t.Fatal("out-of-range Between should be nil")
	}
}

func TestDBSeriesIdentity(t *testing.T) {
	db := NewDB(128)
	a := db.Series("m", obs.Label{Key: "gpu_uuid", Value: "GPU-1"})
	b := db.Series("m", obs.Label{Key: "gpu_uuid", Value: "GPU-1"})
	c := db.Series("m", obs.Label{Key: "gpu_uuid", Value: "GPU-2"})
	if a != b {
		t.Fatal("same name+labels must intern to one series")
	}
	if a == c {
		t.Fatal("distinct labels must not alias")
	}
	if got := len(db.Select("m")); got != 2 {
		t.Fatalf("Select(m) = %d series, want 2", got)
	}
	if names := db.Names(); len(names) != 1 || names[0] != "m" {
		t.Fatalf("Names() = %v", names)
	}
	if a.capacity != 128 {
		t.Fatalf("capacity = %d", a.capacity)
	}
}

// TestCollectorScrape runs a collector against a live registry inside a
// simulation and checks counters, float gauges and histogram count/sum all
// land in the database with their labels intact.
func TestCollectorScrape(t *testing.T) {
	env := sim.NewEnv()
	rt := obs.New(env)
	reg := rt.Registry()
	ctr := reg.CounterVec("kubeshare_test_ticks_total", "node").With("node-0")
	fg := reg.FloatGaugeVec("kubeshare_test_ratio", "node").With("node-0")
	hist := reg.Histogram("kubeshare_test_wait_seconds")

	db := NewDB(0)
	done := false
	col := &Collector{
		DB:       db,
		Registry: reg,
		Interval: time.Second,
		Done:     func() bool { return done },
	}
	col.Start(env)
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			ctr.Inc()
			fg.Set(float64(i) / 10)
			hist.Observe(0.25)
			p.Sleep(time.Second)
		}
		done = true
	})
	env.Run()

	ticks := db.Select("kubeshare_test_ticks_total")
	if len(ticks) != 1 || len(ticks[0].Labels) != 1 || ticks[0].Labels[0].Value != "node-0" {
		t.Fatalf("ticks series = %+v", ticks)
	}
	if last(ticks[0]) != 5 {
		t.Fatalf("final tick count = %v", last(ticks[0]))
	}
	if got := db.Select("kubeshare_test_ratio"); len(got) != 1 || last(got[0]) != 0.4 {
		t.Fatalf("ratio series = %+v", got)
	}
	cnt := db.Select("kubeshare_test_wait_seconds_count")
	sum := db.Select("kubeshare_test_wait_seconds_sum")
	if len(cnt) != 1 || last(cnt[0]) != 5 {
		t.Fatalf("hist count series = %+v", cnt)
	}
	if len(sum) != 1 || math.Abs(last(sum[0])-1.25) > 1e-12 {
		t.Fatalf("hist sum series = %+v", sum)
	}
}

// last returns s's most recent sample value.
func last(s *Series) float64 { return s.Points[len(s.Points)-1].V }

// weight returns the number of raw samples behind s.Points[i].
func weight(s *Series, i int) int64 {
	if s.weights == nil {
		return 1
	}
	return s.weights[i]
}
