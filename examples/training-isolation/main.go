// Training isolation (Figure 6): three training jobs with staggered
// arrivals share one GPU. The vGPU device library throttles each job at its
// gpu_limit, guarantees its gpu_request, and elastically redistributes the
// residual capacity as tenants come and go. This example prints the
// measured usage timeline the paper plots.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"kubeshare/internal/experiments"
)

func main() {
	// The quick run staggers arrivals 100 s apart (the paper used 200 s;
	// same shape).
	res, err := experiments.Fig6(experiments.Quick)
	if err != nil {
		log.Fatal(err)
	}
	res.Table.Render(os.Stdout)
	fmt.Println()
	res.Chart().Render(os.Stdout)

	// Print the raw timeline, downsampled to 20s buckets: the usage steps
	// 0.6 → 0.5/0.5 → 0.3/0.4/0.3 → redistribution are clearly visible.
	fmt.Println("\ntime     job-a  job-b  job-c")
	type row struct{ a, b, c float64 }
	buckets := map[time.Duration]*row{}
	var order []time.Duration
	get := func(t time.Duration) *row {
		t = t / (20 * time.Second) * (20 * time.Second)
		r, ok := buckets[t]
		if !ok {
			r = &row{}
			buckets[t] = r
			order = append(order, t)
		}
		return r
	}
	for name, series := range res.Usage {
		ds := series.Downsample(20 * time.Second)
		for _, p := range ds.Points {
			r := get(p.T)
			switch name {
			case "job-a":
				r.a = p.V
			case "job-b":
				r.b = p.V
			case "job-c":
				r.c = p.V
			}
		}
	}
	for _, t := range order {
		r := buckets[t]
		fmt.Printf("%-8v %5.2f  %5.2f  %5.2f\n", t, r.a, r.b, r.c)
	}
}
