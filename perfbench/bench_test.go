package main

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// tinyScale divides every input size so a whole run takes about a second.
const tinyScale = 20

func tinyRun(t *testing.T, workload string, traced, corrupt bool) (*result, *bench) {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workload: workload, seed: 3, traced: traced, scale: tinyScale,
		state: t.TempDir(), corruptRef: corrupt}
	res, err := run(b, sp)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	return res, b
}

func specWorkloads(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	return sp
}

// Every workload, untraced and traced, prints every metric BENCHMARK.json
// names for that mode, each with its unit, and passes its checks.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	sp := specWorkloads(t)
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			res, b := tinyRun(t, w.Name, traced, false)
			if !res.Correct {
				t.Errorf("%s (traced %v): correctness failed: %v", w.Name, traced, b.problems)
			}
			want := sp.metrics(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, spec names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit == "" || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %q", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (traced %v): attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
		}
	}
}

// A reference built from a damaged log must fail every workload.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range specWorkloads(t).Workloads {
		res, b := tinyRun(t, w.Name, false, true)
		if res.Correct || len(b.problems) == 0 {
			t.Errorf("%s: run with a corrupted reference reported correct", w.Name)
		}
	}
}

// An open-loop stream the process cannot keep on schedule shows it in
// gen.late_p99_ms: on one CPU, handlers that each need twice the send
// interval starve the generator.
func TestLaggingGeneratorReportsLateness(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lateness := func(work time.Duration) float64 {
		busy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			for start := time.Now(); time.Since(start) < work; {
			}
		})
		q := &issuer{h: busy, qs: []query{{"spread", "/spread?seeds=1"}}, rate: 500,
			window: 300 * time.Millisecond, rec: newRecorder(), prefix: "serve"}
		q.run(func(context.Context) error { return nil }, make(chan struct{}))
		r := &round{b: &bench{}, traced: true, layer: make(samples)}
		q.report(r)
		return values(r.layer)["gen.late_p99_ms"]
	}
	slow, fast := lateness(4*time.Millisecond), lateness(0)
	t.Logf("gen.late_p99_ms: %.1f starved, %.1f keeping up", slow, fast)
	if late := slow; late < 50 {
		t.Errorf("lagging generator: gen.late_p99_ms = %.1f, want > 50", late)
	}
	if late := fast; late > 20 {
		t.Errorf("keeping-up generator: gen.late_p99_ms = %.1f, want < 20", late)
	}
}
