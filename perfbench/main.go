// Command perfbench is the repository's end-to-end benchmark. It drives
// the system only from outside, through the packages' exported
// functions, on one of three workloads:
//
//   - backfill: a uniform log pushed closed-loop into stream, then Close
//     and recovery from the closed directory;
//   - live_skewed: a Zipf-skewed, out-of-order log pushed open-loop
//     beside an open-loop query stream through the serve handler;
//   - offline: the paper's batch path (parallel scan, greedy top-k, a
//     seed-set spread batch) over an email-model log.
//
// Traced runs also cover the cluster layer (and, on offline, stream and
// serve) with one coverage round; see probes.go.
//
// Each run repeats the workload in rounds, each over fresh inputs derived
// from --seed, until --seconds of measured time have passed; rounds 0-2
// are warm-ups. Untraced (--trace 0) it prints the end-to-end metrics
// named in BENCHMARK.json; traced (--trace 1) it records spans at every layer
// boundary and prints the per-layer metrics. Correctness checks run
// after each round's timed part and fail the run on any mismatch. The
// last line of standard output is the JSON result.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload backfill --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ipin/internal/gen"
)

// bench is the state of one benchmark run.
type bench struct {
	workload   string
	seed       uint64
	budget     time.Duration // measured time to fill with rounds
	traced     bool          // this run fills the per-layer table
	rates      rates
	model      gen.Model // the workload's log model
	scale      int       // divides every input size (tests run tiny inputs)
	state      string    // scratch directory for this run's state directories
	corruptRef bool      // build the correctness reference from a damaged log

	rec        *recorder
	e2e, layer samples
	attempted  int64
	failed     int64
	problems   []string // correctness mismatches
	seen       observed // what the live path did, for the layer probes
}

// round is one repetition of a workload over fresh inputs.
type round struct {
	b      *bench
	idx    int
	traced bool
	span   int     // the round's root span
	e2e    samples // nil unless the round feeds end-to-end metrics
	layer  samples // nil unless the round is traced
	// key is the round's headline wall time, compared between traced and
	// untraced rounds for the tracing overhead; measured is its time
	// outside the correctness checks, which fills the run's budget.
	key, measured time.Duration
}

func (r *round) addE2E(name string, v float64) {
	if r.e2e != nil {
		r.e2e.add(name, v)
	}
}

func (r *round) addLayer(name string, v float64) {
	if r.layer != nil {
		r.layer.add(name, v)
	}
}

// check records a correctness mismatch; the run then reports
// "correct": false and exits non-zero.
func (r *round) check(ok bool, what string) {
	if !ok {
		r.b.problems = append(r.b.problems, fmt.Sprintf("%s round %d: %s", r.b.workload, r.idx, what))
	}
}

const (
	minRounds    = 3 // timed rounds of an untraced run, at least
	minTraced    = 4 // timed rounds of a traced run: two traced, two not
	warmupRounds = 3 // untimed leading rounds; each measures heap_mb
	maxRounds    = 40
	heapMetric   = "heap_mb"
	overheadName = "bench.trace_overhead"
)

// workloads maps each workload name to its log model, its rounds and,
// for traced runs, the layer coverage it adds after them.
var workloads = map[string]struct {
	model gen.Model
	round func(r *round) error
	cover func(b *bench) error
}{
	"backfill":    {gen.ModelUniform, backfillRound, coverCluster},
	"live_skewed": {gen.ModelSocial, liveRound, coverCluster},
	"offline":     {gen.ModelEmail, offlineRound, coverStreamAndCluster},
}

// loop runs rounds until the budget is filled. In a traced run odd
// rounds are traced and even ones are not, so the overhead compares
// rounds of the same run.
func (b *bench) loop(fn func(r *round) error) error {
	var measured time.Duration
	var on, off []float64
	need := minRounds
	if b.traced {
		need = minTraced
	}
	for i := 0; i <= maxRounds; i++ {
		if i >= warmupRounds+need && measured >= b.budget {
			break
		}
		r := &round{b: b, idx: i}
		switch {
		case i < warmupRounds:
		case b.traced && i%2 == 1:
			r.traced, r.layer = true, b.layer
		case !b.traced:
			r.e2e = b.e2e
		}
		// Every round starts from a collected heap, so garbage from the
		// previous round's inputs and checks is not collected on its clock.
		runtime.GC()
		b.rec.setRun(i, r.traced)
		r.span = b.rec.open("round", 0)
		if err := fn(r); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		b.rec.close(r.span)
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d (traced %v): headline %.1f ms, measured %.1f ms\n",
			b.workload, i, r.traced, ms(r.key), ms(r.measured))
		if i < warmupRounds {
			continue
		}
		measured += r.measured
		if r.traced {
			on = append(on, r.key.Seconds())
		} else {
			off = append(off, r.key.Seconds())
		}
	}
	if b.traced {
		b.layer.add(overheadName, median(on)/median(off)-1)
	}
	return nil
}

// addPercentiles adds a round's p50 and p99 of v (ms) as name_p50_ms and
// name_p99_ms. End-to-end latency is the trimmed mean over rounds of each
// round's percentiles, so one disturbed round cannot set the run's tail.
func (r *round) addPercentiles(name string, v []float64) {
	if len(v) > 0 {
		r.addE2E(name+"_p50_ms", percentile(v, 50))
		r.addE2E(name+"_p99_ms", percentile(v, 99))
	}
}

// pooled per-layer metrics are percentiles over every observation of the
// traced rounds together; every other metric is the trimmed mean of
// per-round values.
var pooled = []struct {
	metric, raw string
	p           float64
}{
	{"stream.push_p99_us", "push_us", 99},
	{"stream.publish_gap_p50_ms", "publish_gap_ms", 50},
	{"stream.persist_p50_ms", "persist_ms", 50},
	{"stream.checkpoint_p50_ms", "checkpoint_ms", 50},
	{"stream.wal_append_us", "wal_append_us", 50},
	{"stream.wal_sync_ms", "wal_sync_ms", 50},
	{"core.fold_ms", "fold_ms", 50},
	{"core.spread_us", "spread_us", 50},
	{"serve.load_ms", "load_ms", 50},
	{"serve.route.spread_p99_ms", "serve.route.spread_ms", 99},
	{"serve.route.influence_p99_ms", "serve.route.influence_ms", 99},
	{"serve.route.spreadwindow_p99_ms", "serve.route.spreadwindow_ms", 99},
	{"serve.route.topk_p99_ms", "serve.route.topk_ms", 99},
	{"cluster.push_p99_us", "cluster_push_us", 99},
	{"cluster.route.spread_p99_ms", "cluster.route.spread_ms", 99},
	{"cluster.route.influence_p99_ms", "cluster.route.influence_ms", 99},
	{"cluster.route.spreadwindow_p99_ms", "cluster.route.spreadwindow_ms", 99},
	{"cluster.route.topk_p99_ms", "cluster.route.topk_ms", 99},
	{"gen.late_p99_ms", "late_ms", 99},
}

// values reduces the samples to one number per metric.
func values(s samples) map[string]float64 {
	out := make(map[string]float64, len(s))
	for name, v := range s {
		out[name] = trimmedMean(v)
	}
	for _, p := range pooled {
		if v, ok := s[p.raw]; ok {
			out[p.metric] = percentile(v, p.p)
		}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report builds the result for the metrics the spec names, failing if
// the run did not measure one of them.
func (b *bench) report(sp *spec) (*result, error) {
	vals := values(b.e2e)
	if b.traced {
		vals = values(b.layer)
	}
	res := &result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metricValue)}
	for _, m := range sp.metrics(b.traced) {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", b.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", b.workload, m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", b.workload)
	}
	return res, nil
}

// run executes one benchmark run and returns its result.
func run(b *bench, sp *spec) (*result, error) {
	w, ok := workloads[b.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", b.workload)
	}
	r, err := sp.rates(b.workload)
	if err != nil {
		return nil, err
	}
	b.rates, b.model = r, w.model
	b.rec = newRecorder()
	b.e2e, b.layer = make(samples), make(samples)
	if err := os.MkdirAll(b.state, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.state, b.workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b.state = dir
	if err := b.loop(w.round); err != nil {
		return nil, err
	}
	if b.traced {
		if err := w.cover(b); err != nil {
			return nil, err
		}
		if err := probeLayers(b); err != nil {
			return nil, err
		}
		path := filepath.Join(filepath.Dir(dir), "spans-"+b.workload+".jsonl")
		if err := b.rec.writeJSONL(path); err != nil {
			return nil, err
		}
		printSelfTimes(b.rec, path)
	}
	return b.report(sp)
}

// printSelfTimes writes the traced run's self time per span name to
// standard error, largest first.
func printSelfTimes(rec *recorder, path string) {
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "perfbench: spans in %s; self time by span:\n", path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %10.1f ms\n", n, ms(self[n]))
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name from BENCHMARK.json")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition")
		state    = flag.String("state", ".bench_build/state", "scratch directory for state directories")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	b := &bench{workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, scale: 1, state: *state}
	res, err := run(b, sp)
	if err != nil {
		fatal(err)
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH %s\n", p)
	}
	fmt.Printf("# hardware: NumCPU=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
