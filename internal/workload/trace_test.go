package workload

import (
	"strings"
	"testing"
	"time"
)

func TestTraceRoundTrip(t *testing.T) {
	jobs := Generate(GeneratorConfig{
		Jobs: 25, MeanInterArrival: 3 * time.Second,
		DemandMean: 0.3, DemandVar: 2, JobDuration: 40 * time.Second, Seed: 5,
	})
	jobs[3].Affinity = "grp"
	jobs[4].AntiAffinity = "spread"
	jobs[5].Exclusion = "tenant,with,commas"
	var b strings.Builder
	if err := WriteTrace(&b, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range jobs {
		want := jobs[i]
		// Arrival is stored at millisecond resolution.
		want.Arrival = want.Arrival.Truncate(time.Millisecond)
		want.Duration = want.Duration.Truncate(time.Millisecond)
		if got[i] != want {
			t.Fatalf("job %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestTraceEmptyWorkload(t *testing.T) {
	var b strings.Builder
	if err := WriteTrace(&b, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(strings.NewReader(b.String()))
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not,a,trace\n",
		"name,arrival_ms,demand,duration_ms,affinity,anti_affinity,exclusion,seed\nj,abc,0.5,100,,,,1\n",
		"name,arrival_ms,demand,duration_ms,affinity,anti_affinity,exclusion,seed\nj,100,1.5,100,,,,1\n",
		"name,arrival_ms,demand,duration_ms,affinity,anti_affinity,exclusion,seed\nj,100,0.5,xyz,,,,1\n",
	}
	for i, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// Rows that parse but describe no job are refused with their line number: a
// NaN demand, a negative or overflowing time, an empty or repeated name.
func TestTraceRejectsInvalidJobs(t *testing.T) {
	const header = "name,arrival_ms,demand,duration_ms,affinity,anti_affinity,exclusion,seed\n"
	const good = "ok,100,0.5,100,,,,1\n"
	for _, row := range []string{
		"j,100,NaN,100,,,,1\n",
		"j,-1,0.5,100,,,,1\n",
		"j,100,0.5,-1,,,,1\n",
		"j,9223372036855,0.5,100,,,,1\n",
		"j,100,0.5,9223372036855,,,,1\n",
		",100,0.5,100,,,,1\n",
		"ok,200,0.5,100,,,,2\n",
	} {
		_, err := ReadTrace(strings.NewReader(header + good + row))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("row %q: err = %v, want it refused at line 3", row, err)
		}
	}
	if jobs, err := ReadTrace(strings.NewReader(header + "j,9223372036854,1,0,,,,1\n")); err != nil || len(jobs) != 1 {
		t.Fatalf("the largest arrival a Duration holds: %v, err %v", jobs, err)
	}
}
