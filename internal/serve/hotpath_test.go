package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
)

// discardWriter keeps nothing, so AllocsPerRun counts only what serving
// the request allocates.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestHotPathAllocs bounds the allocations of a cached /spread and
// /influence through the instrumented handler to the request plumbing:
// the deadline context, query parsing, the seed set, the cache key and
// the Content-Type header. Formatting a metric name or a cache key with
// fmt on every request breaks the bound.
func TestHotPathAllocs(t *testing.T) {
	s := New(Config{CacheSize: 64, Registry: obs.NewRegistry()})
	s.LoadApprox(testApprox(t))
	h := s.Handler()
	for _, tc := range []struct {
		path string
		max  float64
	}{
		{"/spread?seeds=3,0,1", 14},
		{"/influence?node=1", 12},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req) // fill the cache and register the route's series
		if n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); n > tc.max {
			t.Errorf("%s: %.0f allocations per request, want at most %.0f", tc.path, n, tc.max)
		}
	}
}

// TestTopKFromOneSequence: /topk answers every k from the generation's
// one greedy sequence, and each answer is byte for byte the body a
// per-request core.TopKApproxSeeds selection renders — whether the
// sequence grows with each request or the largest k comes first.
func TestTopKFromOneSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := graph.New(60)
	for i := 0; i < 600; i++ {
		l.Add(graph.NodeID(rng.Intn(60)), graph.NodeID(rng.Intn(60)), graph.Time(rng.Intn(2000)))
	}
	l.Sort()
	sum, err := core.ComputeApprox(l, 200, core.DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewApproxOracle(sum)
	for _, ks := range [][]int{{1, 3, 4, 5, 10}, {10, 5, 4, 3, 1}} {
		s := New(Config{}) // no result cache: every request reaches the sequence
		s.LoadApprox(sum)
		h := s.Handler()
		for _, k := range ks {
			seeds := core.TopKApproxSeeds(sum, k)
			want, err := marshalBody(map[string]any{"seeds": seeds, "spread": oracle.Spread(seeds)})
			if err != nil {
				t.Fatal(err)
			}
			code, _, got := get(t, h, "/topk?k="+strconv.Itoa(k))
			if code != http.StatusOK || got != string(want) {
				t.Fatalf("order %v, k=%d: %d %s, want %s", ks, k, code, got, want)
			}
		}
	}
}
