package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"kubeshare/internal/experiments"
)

// serveIndex is the landing page for `kubeshare-sim serve`.
const serveIndex = `kubeshare-sim serve — live telemetry export

  /metrics                     Prometheus text exposition of the live registry
  /series                      JSON list of recorded time-series names
  /series?name=N[&from=S&to=S] TSDB range query (seconds on the virtual clock)
  /alerts                      SLO alert engine states (JSON)
  /audit                       per-tenant fairness report (text tables)
  /trace                       span log (NDJSON)
  /profile                     virtual-time profile: phase budget + span table
  /profile?format=folded       collapsed-stack lines for flamegraph tooling
  /events                      event log (NDJSON)
  /clock                       virtual clock and workload progress (JSON)
`

// newServeMux wires the export endpoints for a live run. Split from
// runServe so the smoke test can drive it through httptest.
func newServeMux(live *experiments.Live) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, serveIndex)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		live.WriteMetrics(w)
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var from, to time.Duration
		for _, arg := range []struct {
			key string
			dst *time.Duration
		}{{"from", &from}, {"to", &to}} {
			if s := q.Get(arg.key); s != "" {
				sec, err := strconv.ParseFloat(s, 64)
				if err != nil {
					http.Error(w, fmt.Sprintf("bad %s: %v", arg.key, err), http.StatusBadRequest)
					return
				}
				*arg.dst = time.Duration(sec * float64(time.Second))
			}
		}
		w.Header().Set("Content-Type", "application/json")
		live.WriteSeries(w, q.Get("name"), from, to)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		live.WriteAlerts(w)
	})
	mux.HandleFunc("/audit", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		live.WriteAudit(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		live.WriteTrace(w)
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		live.WriteProfile(w, r.URL.Query().Get("format") == "folded")
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		live.WriteEvents(w)
	})
	mux.HandleFunc("/clock", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"virtual_seconds\":%.3f,\"done\":%v}\n", live.Now().Seconds(), live.Done())
	})
	return mux
}

// runServe replays the seeded Fig 9 sharing workload paced against the wall
// clock while exporting its telemetry over HTTP.
func runServe(args []string, seed int64, scale experiments.Scale) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address")
	speed := fs.Float64("speed", 1.0, "virtual seconds advanced per wall-clock second")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *speed <= 0 {
		return fmt.Errorf("-speed must be positive, got %v", *speed)
	}
	live, err := experiments.StartLive(experiments.LiveConfig{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: newServeMux(live)}
	go srv.Serve(ln)
	fmt.Printf("serving telemetry on http://%s (speed %gx)\n", ln.Addr(), *speed)
	fmt.Printf("try: curl http://%s/metrics\n", ln.Addr())

	// Pace the virtual clock: each wall tick advances speed×tick of
	// simulated time. Once the workload drains, keep serving the final
	// telemetry until interrupted.
	const tick = 100 * time.Millisecond
	step := time.Duration(*speed * float64(tick))
	for t := time.NewTicker(tick); ; <-t.C {
		if live.Done() {
			break
		}
		if err := live.Advance(step); err != nil {
			return err
		}
	}
	fmt.Printf("workload complete at virtual %v; still serving (ctrl-c to exit)\n",
		live.Now().Round(time.Millisecond))
	select {}
}

// runAudit runs the fairness audit and prints the per-tenant accounting and
// per-GPU Jain tables plus the run's SLO alert count — byte-identical
// across runs at the same seed.
func runAudit(seed int64, scale experiments.Scale, csv bool) error {
	res, err := experiments.Audit(scale, seed)
	if err != nil {
		return err
	}
	if csv {
		fmt.Printf("# %s\n", res.Shares.Title)
		if err := res.Shares.WriteCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("# %s\n", res.Fairness.Title)
		if err := res.Fairness.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else {
		res.Shares.Render(os.Stdout)
		fmt.Println()
		res.Fairness.Render(os.Stdout)
	}
	fmt.Printf("\nslo alerts fired: %d\n", res.AlertsFired)
	return nil
}
