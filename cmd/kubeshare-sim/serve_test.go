package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/experiments"
	"kubeshare/internal/workload"
)

// get fetches a path from the test server and returns the body.
func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return string(body)
}

// TestServeEndpoints drives the full export surface against a small live
// run: every endpoint must answer, /metrics must expose the labeled
// utilization and tenant-share gauges, and /series must answer a range
// query with points.
func TestServeEndpoints(t *testing.T) {
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 8, MeanInterArrival: 2 * time.Second,
		DemandMean: 0.35, DemandVar: 1,
		JobDuration: 10 * time.Second, Seed: 1,
	})
	live, err := experiments.StartLive(experiments.LiveConfig{
		Nodes: 1, GPUsPerNode: 2, Jobs: jobs, Interval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run half the workload so the scrape sees a cluster mid-flight, then
	// drain the rest — both states must export cleanly.
	if err := live.Advance(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServeMux(live))
	defer srv.Close()

	metricsBody := get(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE kubeshare_gpu_utilization_ratio gauge",
		`kubeshare_gpu_utilization_ratio{gpu_uuid="`,
		`kubeshare_tenant_token_share{gpu_uuid="`,
		`kubeshare_devlib_token_grants_total{gpu_uuid="`,
		"kubeshare_sched_latency_seconds_bucket{le=",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var names []string
	if err := json.Unmarshal([]byte(get(t, srv, "/series")), &names); err != nil {
		t.Fatalf("/series: %v", err)
	}
	hasUtil := false
	for _, n := range names {
		if n == "kubeshare_gpu_utilization_ratio" {
			hasUtil = true
		}
	}
	if !hasUtil {
		t.Fatalf("/series names missing kubeshare_gpu_utilization_ratio: %v", names)
	}
	var series []struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Points [][2]float64      `json:"points"`
	}
	body := get(t, srv, "/series?name=kubeshare_gpu_utilization_ratio&from=0&to=15")
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/series range query: %v", err)
	}
	if len(series) != 2 {
		t.Fatalf("want one utilization series per GPU (2), got %d", len(series))
	}
	for _, s := range series {
		if s.Labels["gpu_uuid"] == "" || s.Labels["node"] == "" {
			t.Errorf("series %s missing gpu_uuid/node labels: %v", s.Name, s.Labels)
		}
		if len(s.Points) == 0 {
			t.Errorf("series %s has no points in [0,15s]", s.Name)
		}
	}

	var alerts []map[string]any
	if err := json.Unmarshal([]byte(get(t, srv, "/alerts")), &alerts); err != nil {
		t.Fatalf("/alerts: %v", err)
	}

	if body := get(t, srv, "/audit"); !strings.Contains(body, "jain") {
		t.Errorf("/audit missing jain table:\n%s", body)
	}
	if body := get(t, srv, "/trace"); !strings.Contains(body, `"component"`) {
		t.Error("/trace returned no spans")
	}
	if body := get(t, srv, "/events"); !strings.Contains(body, `"reason"`) {
		t.Error("/events returned no events")
	}
	if body := get(t, srv, "/profile"); !strings.Contains(body, "--- phase budget") {
		t.Errorf("/profile missing phase budget:\n%s", body)
	}
	if body := get(t, srv, "/profile?format=folded"); !strings.Contains(body, "spans;token;") {
		t.Errorf("/profile?format=folded missing folded frames:\n%s", body)
	}
	var clock struct {
		VirtualSeconds float64 `json:"virtual_seconds"`
		Done           bool    `json:"done"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/clock")), &clock); err != nil {
		t.Fatalf("/clock: %v", err)
	}
	if clock.VirtualSeconds < 15 {
		t.Errorf("clock did not advance: %v", clock.VirtualSeconds)
	}

	// Drain the workload and confirm the exports still answer.
	for i := 0; i < 200 && !live.Done(); i++ {
		if err := live.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !live.Done() {
		t.Fatal("workload did not drain within 200 virtual seconds")
	}
	if body := get(t, srv, "/metrics"); !strings.Contains(body, "kubeshare_devmgr_vgpu_creates_total") {
		t.Error("post-drain /metrics missing vgpu create counter")
	}
}
