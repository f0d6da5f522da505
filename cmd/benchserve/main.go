// Command benchserve measures the serving layer (internal/serve) on a
// generated interaction log and writes the results as JSON
// (BENCH_serve.json at the repo root, by convention). It exercises the
// three mechanisms the layer stacks on top of the oracle:
//
//   - result cache: the same bounded repeated-seed-set workload cold
//     (cache disabled) and cached. The run fails unless the serve
//     registry accounts for the cache exactly — the cached run computes
//     each distinct path once (misses = distinct paths, hits = the
//     rest), the cold run serves nothing from a cache — and the cached
//     /spread p50 latency beats the cold one by -min-speedup. Throughput
//     and its cached/cold ratio are reported, not gated: with greedy
//     kept per snapshot generation a cold /topk is cheap, so the QPS
//     ratio says more about the mix than about the cache;
//   - byte identity: every body in the workload is replayed with the
//     cache on and off and across shard counts and must match exactly;
//   - load shedding: a burst of expensive queries against a tiny
//     admission window, verifying the wait queue stays bounded and the
//     overflow is shed with 429/503 instead of queueing without limit.
//
// Requests drive the exact http.Handler the server mounts (through
// httptest recorders, no sockets), so the numbers include routing, cache
// lookup, computation, and JSON rendering — everything but the kernel's
// network stack.
//
// The report records the host's CPU count and GOMAXPROCS alongside, the
// same convention as BENCH_parallel.json: cached-vs-cold is mostly
// CPU-architecture-independent, but the concurrent sections only show
// contention when the host has real cores to contend on.
//
// Usage:
//
//	benchserve -edges 200000 -queries 5000 -out BENCH_serve.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/obs"
	"ipin/internal/serve"
)

type report struct {
	Edges         int     `json:"edges"`
	Nodes         int     `json:"nodes"`
	OmegaTicks    int64   `json:"omega_ticks"`
	SeedSets      int     `json:"distinct_seed_sets"`
	SeedsPerSet   int     `json:"seeds_per_set"`
	TopkEvery     int     `json:"topk_every"`
	Queries       int     `json:"queries"`
	Clients       int     `json:"clients"`
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Note          string  `json:"note"`
	ColdQPS       float64 `json:"cold_qps"`
	ColdP50Ms     float64 `json:"cold_p50_ms"`
	ColdP99Ms     float64 `json:"cold_p99_ms"`
	CachedQPS     float64 `json:"cached_qps"`
	CachedP50Ms   float64 `json:"cached_p50_ms"`
	CachedP99Ms   float64 `json:"cached_p99_ms"`
	CacheSpeedup  float64 `json:"cache_speedup"`
	BytesIdentity bool    `json:"bytes_identical_across_configs"`
	Overload      struct {
		Requests     int   `json:"requests"`
		MaxInflight  int   `json:"max_inflight"`
		QueueDepth   int   `json:"queue_depth"`
		OK           int   `json:"ok_200"`
		Shed429      int   `json:"shed_429"`
		Shed503      int   `json:"shed_503"`
		PeakQueueObs int64 `json:"peak_queue_depth_observed"`
	} `json:"overload"`
	// The gated cache statistics: /spread-only p50 latencies and their
	// ratio, and the cache accounting read from each server's registry.
	ColdSpreadP50Ms   float64 `json:"cold_spread_p50_ms"`
	CachedSpreadP50Ms float64 `json:"cached_spread_p50_ms"`
	SpreadP50Speedup  float64 `json:"spread_p50_speedup"`
	Accounting        struct {
		DistinctPaths int   `json:"distinct_paths"`
		CachedHits    int64 `json:"cached_hits"`
		CachedMisses  int64 `json:"cached_misses"`
		CachedOK      int64 `json:"cached_ok_200"`
		ColdHits      int64 `json:"cold_hits"`
		ColdMisses    int64 `json:"cold_misses"`
		ColdOK        int64 `json:"cold_ok_200"`
	} `json:"cache_accounting"`
}

func main() {
	var (
		edges      = flag.Int("edges", 200_000, "interactions in the generated log")
		nodes      = flag.Int("nodes", 20_000, "nodes in the generated log")
		window     = flag.Float64("window", 1, "window as % of the time span")
		queries    = flag.Int("queries", 5_000, "queries per throughput phase")
		seedSets   = flag.Int("seed-sets", 64, "distinct seed sets in the workload (cache working set)")
		seedsPer   = flag.Int("seeds-per-set", 32, "seeds per set")
		topkEvery  = flag.Int("topk-every", 16, "every Nth workload slot is a small /topk query (0 disables)")
		clients    = flag.Int("clients", 2*runtime.GOMAXPROCS(0), "concurrent client goroutines")
		minSpeedup = flag.Float64("min-speedup", 1.5, "fail unless the cold /spread p50 latency is this many times the cached one")
		out        = flag.String("out", "BENCH_serve.json", "output JSON path")
	)
	flag.Parse()

	l, err := gen.Generate(gen.Config{
		Name:         "benchserve",
		Model:        gen.ModelUniform,
		Nodes:        *nodes,
		Interactions: *edges,
		SpanTicks:    int64(*edges) * 4,
		Seed:         1,
	})
	if err != nil {
		fatal(err)
	}
	omega := l.WindowFromPercent(*window)
	sum, err := core.ComputeApprox(l, omega, core.DefaultPrecision)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchserve: %d nodes, %d interactions, ω=%d (NumCPU=%d)\n",
		l.NumNodes, l.Len(), omega, runtime.NumCPU())

	// The workload: /spread over a bounded set of distinct seed sets, with
	// every topk-every-th slot a small /topk — the shape a dashboard or an
	// A/B harness produces. Repeats dominate, so the cache can do its job;
	// the /topk slots are where it pays most, because greedy selection
	// recomputed per query is orders of magnitude above a cache hit.
	// Deterministic (seeded generator elsewhere, plain arithmetic here) so
	// every configuration sees the same paths.
	paths := make([]string, *seedSets)
	for i := range paths {
		if *topkEvery > 0 && i%*topkEvery == *topkEvery-1 {
			paths[i] = fmt.Sprintf("/topk?k=%d", 2+i%7)
			continue
		}
		seeds := make([]string, *seedsPer)
		for j := range seeds {
			seeds[j] = fmt.Sprint((i*7919 + j*104729) % l.NumNodes)
		}
		paths[i] = "/spread?seeds=" + join(seeds)
	}

	rep := report{
		Edges:       l.Len(),
		Nodes:       l.NumNodes,
		OmegaTicks:  omega,
		SeedSets:    *seedSets,
		SeedsPerSet: *seedsPer,
		TopkEvery:   *topkEvery,
		Queries:     *queries,
		Clients:     *clients,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Note: "workload mixes repeated /spread seed sets with small /topk queries; cold = cache disabled (every query recomputes); cached = LRU over rendered " +
			"bodies with the same workload; gated: exact cache accounting and the /spread p50 ratio; QPS and its ratio reported only; " +
			"identical bodies verified across cache on/off and shards 1/4",
	}

	newServer := func(cacheSize, shards int, reg *obs.Registry) *serve.Server {
		s := serve.New(serve.Config{Shards: shards, CacheSize: cacheSize, MaxInflight: -1, Registry: reg})
		s.LoadApprox(sum)
		return s
	}

	// Phase 1: cold vs cached on the same handler shape, each server with
	// a registry of its own to account for what its cache did.
	coldReg, cachedReg := obs.NewRegistry(), obs.NewRegistry()
	cold := newServer(0, serve.DefaultShards, coldReg)
	coldD, coldLat := drive(cold.Handler(), paths, *queries, *clients)
	cached := newServer(4096, serve.DefaultShards, cachedReg)
	cachedD, cachedLat := drive(cached.Handler(), paths, *queries, *clients)
	rep.ColdQPS = float64(*queries) / coldD.Seconds()
	rep.CachedQPS = float64(*queries) / cachedD.Seconds()
	rep.CacheSpeedup = rep.CachedQPS / rep.ColdQPS
	rep.ColdP50Ms = percentileMs(coldLat, 50)
	rep.ColdP99Ms = percentileMs(coldLat, 99)
	rep.CachedP50Ms = percentileMs(cachedLat, 50)
	rep.CachedP99Ms = percentileMs(cachedLat, 99)
	rep.ColdSpreadP50Ms = percentileMs(routeLatencies(coldLat, paths, "/spread?"), 50)
	rep.CachedSpreadP50Ms = percentileMs(routeLatencies(cachedLat, paths, "/spread?"), 50)
	rep.SpreadP50Speedup = rep.ColdSpreadP50Ms / rep.CachedSpreadP50Ms
	distinct := map[string]bool{}
	for i := 0; i < *queries; i++ {
		distinct[paths[i%len(paths)]] = true
	}
	acct := &rep.Accounting
	acct.DistinctPaths = len(distinct)
	acct.CachedHits, acct.CachedMisses, acct.CachedOK = cacheCounts(cachedReg)
	acct.ColdHits, acct.ColdMisses, acct.ColdOK = cacheCounts(coldReg)
	fmt.Fprintf(os.Stderr, "benchserve: cold %.0f qps (p50 %.2fms p99 %.2fms), cached %.0f qps (p50 %.3fms p99 %.3fms), qps ratio %.1fx (reported)\n",
		rep.ColdQPS, rep.ColdP50Ms, rep.ColdP99Ms, rep.CachedQPS, rep.CachedP50Ms, rep.CachedP99Ms, rep.CacheSpeedup)
	fmt.Fprintf(os.Stderr, "benchserve: /spread p50 cold %.3fms cached %.3fms (%.1fx); cached hits %d misses %d for %d distinct paths; cold hits %d misses %d, %d of %d answered\n",
		rep.ColdSpreadP50Ms, rep.CachedSpreadP50Ms, rep.SpreadP50Speedup, acct.CachedHits, acct.CachedMisses, acct.DistinctPaths,
		acct.ColdHits, acct.ColdMisses, acct.ColdOK, *queries)

	// Phase 2: byte identity. Replay every workload path (plus the other
	// routes) against cache on/off × shards {1,4} and compare bodies.
	checkPaths := append([]string{}, paths...)
	checkPaths = append(checkPaths, "/influence?node=0", "/topk?k=8", "/spreadby?seeds=1,2,3&deadline="+fmt.Sprint(omega), "/stats")
	rep.BytesIdentity = true
	var want []string
	for _, shards := range []int{1, 4} {
		for _, cacheSize := range []int{0, 4096} {
			s := newServer(cacheSize, shards, nil)
			h := s.Handler()
			bodies := make([]string, len(checkPaths))
			for i, p := range checkPaths {
				code, body := hit(h, http.MethodGet, p)
				if code != http.StatusOK {
					fatal(fmt.Errorf("identity check: %s -> %d %s", p, code, body))
				}
				bodies[i] = body
			}
			if want == nil {
				want = bodies
				continue
			}
			for i := range bodies {
				if bodies[i] != want[i] {
					rep.BytesIdentity = false
					fmt.Fprintf(os.Stderr, "benchserve: MISMATCH shards=%d cache=%d %s:\n  %q\n  %q\n",
						shards, cacheSize, checkPaths[i], bodies[i], want[i])
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "benchserve: byte identity across configs: %v\n", rep.BytesIdentity)

	// Phase 3: overload. Expensive /topk queries (distinct k values, so
	// neither the cache nor single-flight absorbs them) against a tiny
	// admission window: most of the burst must shed, not queue.
	const maxInflight, queueDepth = 2, 4
	over := serve.New(serve.Config{
		CacheSize:      0,
		MaxInflight:    maxInflight,
		QueueDepth:     queueDepth,
		RequestTimeout: 200 * time.Millisecond,
	})
	over.LoadApprox(sum)
	oh := over.Handler()
	burst := 4 * (*clients) * (maxInflight + queueDepth)
	var ok200, shed429, shed503 atomic.Int64
	var peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 2 + i%64
			if d := over.QueueDepthNow(); d > peak.Load() {
				peak.Store(d) // racy max, observational only; the hard bound is asserted below
			}
			code, _ := hit(oh, http.MethodGet, fmt.Sprintf("/topk?k=%d", k))
			switch code {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				shed429.Add(1)
			case http.StatusServiceUnavailable:
				shed503.Add(1)
			default:
				fatal(fmt.Errorf("overload: unexpected status %d", code))
			}
		}(i)
	}
	wg.Wait()
	rep.Overload.Requests = burst
	rep.Overload.MaxInflight = maxInflight
	rep.Overload.QueueDepth = queueDepth
	rep.Overload.OK = int(ok200.Load())
	rep.Overload.Shed429 = int(shed429.Load())
	rep.Overload.Shed503 = int(shed503.Load())
	rep.Overload.PeakQueueObs = peak.Load()
	fmt.Fprintf(os.Stderr, "benchserve: overload %d requests -> %d ok, %d shed 429, %d shed 503 (peak queue %d)\n",
		burst, rep.Overload.OK, rep.Overload.Shed429, rep.Overload.Shed503, rep.Overload.PeakQueueObs)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(f, rep); err != nil {
		fatal(err)
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "benchserve: wrote %s\n", *out)

	queriesN := int64(*queries)
	switch {
	case !rep.BytesIdentity:
		fatal(fmt.Errorf("response bodies diverged across cache/shard configurations"))
	case acct.CachedMisses != int64(acct.DistinctPaths) || acct.CachedHits != queriesN-int64(acct.DistinctPaths) || acct.CachedOK != queriesN:
		fatal(fmt.Errorf("cached run: %d misses, %d hits, %d answered; want %d misses (one per distinct path), %d hits, %d answered",
			acct.CachedMisses, acct.CachedHits, acct.CachedOK, acct.DistinctPaths, queriesN-int64(acct.DistinctPaths), queriesN))
	case acct.ColdHits != 0 || acct.ColdMisses != 0 || acct.ColdOK != queriesN:
		fatal(fmt.Errorf("cold run: %d hits, %d misses, %d answered; want every one of %d queries computed, none through a cache",
			acct.ColdHits, acct.ColdMisses, acct.ColdOK, queriesN))
	case rep.SpreadP50Speedup < *minSpeedup:
		fatal(fmt.Errorf("cached /spread p50 speedup %.2fx below the %.1fx floor", rep.SpreadP50Speedup, *minSpeedup))
	case rep.Overload.Shed429 == 0:
		fatal(fmt.Errorf("overload burst produced no 429s: queue not bounded"))
	case rep.Overload.PeakQueueObs > queueDepth:
		fatal(fmt.Errorf("observed queue depth %d exceeds the %d bound", rep.Overload.PeakQueueObs, queueDepth))
	}
}

// drive replays total queries round-robin over paths from clients
// concurrent goroutines and returns the wall-clock duration plus the
// per-request latencies (one entry per query, order unspecified).
func drive(h http.Handler, paths []string, total, clients int) (time.Duration, []time.Duration) {
	lat := make([]time.Duration, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				code, body := hit(h, http.MethodGet, paths[i%len(paths)])
				lat[i] = time.Since(t0)
				if code != http.StatusOK {
					fatal(fmt.Errorf("drive: %s -> %d %s", paths[i%len(paths)], code, body))
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), lat
}

// routeLatencies returns the latencies of the queries drive sent to
// paths starting with prefix (query i went to paths[i%len(paths)]).
func routeLatencies(lat []time.Duration, paths []string, prefix string) []time.Duration {
	var out []time.Duration
	for i, d := range lat {
		if strings.HasPrefix(paths[i%len(paths)], prefix) {
			out = append(out, d)
		}
	}
	return out
}

// cacheCounts reads a server registry's result-cache hits and misses and
// its 200 responses on the workload's routes.
func cacheCounts(reg *obs.Registry) (hits, misses, ok int64) {
	for _, route := range []string{"/spread", "/topk"} {
		ok += reg.Counter(fmt.Sprintf(`%s{route=%q,code="200"}`, obs.MetricHTTPRequests, route), "").Value()
	}
	return reg.Counter(serve.MetricCacheHits, "").Value(), reg.Counter(serve.MetricCacheMisses, "").Value(), ok
}

// percentileMs returns the p-th percentile of the latencies in
// milliseconds (nearest-rank on the sorted copy).
func percentileMs(lat []time.Duration, p int) float64 {
	s := append([]time.Duration{}, lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * p / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx]) / float64(time.Millisecond)
}

// hit performs one in-process request against the handler.
func hit(h http.Handler, method, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec.Code, rec.Body.String()
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

func writeJSON(f *os.File, v any) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchserve: %v\n", err)
	os.Exit(1)
}
