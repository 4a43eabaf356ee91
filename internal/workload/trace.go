package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Trace I/O: workloads serialize to a small CSV format so experiments can
// be recorded, shared and replayed byte-identically — the harness
// equivalent of the paper's "average of 5 experimental runs" being
// re-runnable.

// traceHeader is the CSV schema.
var traceHeader = []string{"name", "arrival_ms", "demand", "duration_ms", "affinity", "anti_affinity", "exclusion", "seed"}

// WriteTrace serializes jobs as CSV.
func WriteTrace(w io.Writer, jobs []Job) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return err
	}
	for _, j := range jobs {
		rec := []string{
			j.Name,
			strconv.FormatInt(j.Arrival.Milliseconds(), 10),
			strconv.FormatFloat(j.Demand, 'f', -1, 64),
			strconv.FormatInt(j.Duration.Milliseconds(), 10),
			j.Affinity,
			j.AntiAffinity,
			j.Exclusion,
			strconv.FormatInt(j.Seed, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// maxTraceMS is the largest arrival_ms or duration_ms a time.Duration holds.
const maxTraceMS = math.MaxInt64 / int64(time.Millisecond)

// ReadTrace parses a CSV trace produced by WriteTrace. Every job it returns
// has a non-empty name no other job has, a demand in (0,1], and a
// non-negative arrival and duration; anything else is an error naming the
// line.
func ReadTrace(r io.Reader) ([]Job, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if len(header) != len(traceHeader) {
		return nil, fmt.Errorf("workload: trace has %d columns, want %d", len(header), len(traceHeader))
	}
	var jobs []Job
	names := map[string]bool{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		name := rec[0]
		if name == "" || names[name] {
			return nil, fmt.Errorf("workload: trace line %d name %q is empty or a duplicate", line, name)
		}
		names[name] = true
		arrival, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d arrival: %w", line, err)
		}
		if arrival < 0 || arrival > maxTraceMS {
			return nil, fmt.Errorf("workload: trace line %d arrival %d ms outside [0,%d]", line, arrival, maxTraceMS)
		}
		demand, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d demand: %w", line, err)
		}
		if !(demand > 0 && demand <= 1) { // NaN fails both comparisons
			return nil, fmt.Errorf("workload: trace line %d demand %v outside (0,1]", line, demand)
		}
		duration, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d duration: %w", line, err)
		}
		if duration < 0 || duration > maxTraceMS {
			return nil, fmt.Errorf("workload: trace line %d duration %d ms outside [0,%d]", line, duration, maxTraceMS)
		}
		seed, err := strconv.ParseInt(rec[7], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d seed: %w", line, err)
		}
		jobs = append(jobs, Job{
			Name:         name,
			Arrival:      time.Duration(arrival) * time.Millisecond,
			Demand:       demand,
			Duration:     time.Duration(duration) * time.Millisecond,
			Affinity:     rec[4],
			AntiAffinity: rec[5],
			Exclusion:    rec[6],
			Seed:         seed,
		})
	}
	return jobs, nil
}
