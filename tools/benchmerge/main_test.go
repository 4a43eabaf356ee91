package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodRecord = `{
  "date": "2026-08-08T00:00:00Z",
  "cpus": 4,
  "rounds": 3,
  "benchmarks": {
    "BenchmarkTimerChurn": {"cpus": 4, "gomaxprocs": 4, "ns_op": 123}
  },
  "fig16_scale_sweep": {"cpus": 4, "gomaxprocs": 4, "sharepods_10000": {"wall_ms": 440}}
}`

func TestAppendValidRecord(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	for i := 0; i < 2; i++ {
		if err := run(out, strings.NewReader(goodRecord)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var log benchLog
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(log.Records))
	}
}

func TestRejectMissingCPUBudget(t *testing.T) {
	for name, record := range map[string]string{
		"bench entry without gomaxprocs": `{"benchmarks": {"BenchmarkX": {"cpus": 4, "ns_op": 1}}}`,
		"bench entry without cpus":       `{"benchmarks": {"BenchmarkX": {"gomaxprocs": 4, "ns_op": 1}}}`,
		"section without budget":         `{"obs_overhead": {"on_ns": 1, "off_ns": 1}}`,
		"non-numeric budget":             `{"obs_overhead": {"cpus": "4", "gomaxprocs": 4}}`,
	} {
		out := filepath.Join(t.TempDir(), "BENCH.json")
		err := run(out, strings.NewReader(record))
		if err == nil || !strings.Contains(err.Error(), "cpu budget") {
			t.Errorf("%s: err = %v, want cpu-budget rejection", name, err)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("%s: rejected record still wrote %s", name, out)
		}
	}
}
