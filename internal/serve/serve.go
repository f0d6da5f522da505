// Package serve is the production-shaped query layer between computed IRS
// summaries and HTTP: everything a process needs to keep answering
// influence-oracle queries fast and predictably while snapshots reload
// underneath it and traffic exceeds what the host can absorb.
//
// The layer has three independent mechanisms, composed in request order:
//
//   - Admission control (admission.go): a concurrency limiter with a
//     bounded FIFO wait queue and per-request deadlines. Requests beyond
//     the queue bound are shed immediately with 429 and Retry-After;
//     requests whose deadline expires while queued get 503. Latency under
//     overload therefore stays bounded by design instead of growing
//     without limit.
//
//   - A result cache (cache.go): a bounded LRU over fully rendered
//     response bodies, keyed on the route, the canonicalized (sorted,
//     deduplicated) seed set, and the snapshot generation, with
//     single-flight deduplication — concurrent identical queries compute
//     once and share the bytes. Because the cache stores the exact bytes
//     a cold computation would produce, responses are byte-identical with
//     the cache on or off.
//
//   - A sharded summary store (store.go): collapsed per-node sketches (or
//     exact summary maps) spread across N shards with per-shard RWMutexes
//     plus a seqlock-style generation counter, so concurrent queries
//     proceed without a global lock and a live snapshot reload (SIGHUP or
//     POST /admin/reload) swaps in the new table with only per-pointer
//     write-lock pauses — the expensive decode and collapse work happens
//     entirely off the read path. HyperLogLog union is a cell-wise
//     maximum, so query answers are independent of the shard count.
//
// All three are instrumented through internal/obs (cache hit/miss/
// single-flight counters, shed counters by reason, queue-depth gauge,
// reload counter; per-route latency histograms come from obs.Middleware
// wrapped around the handler). A nil Registry keeps every instrument a
// no-op.
//
// Typical wiring (examples/oracleserver is the reference deployment):
//
//	srv := serve.New(serve.Config{CacheSize: 4096, MaxInflight: 64,
//		QueueDepth: 128, SnapshotPath: "irs.bin", Registry: reg})
//	srv.LoadApprox(summaries)          // or srv.Reload() from SnapshotPath
//	http.ListenAndServe(addr, srv.Handler())
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/trace"
)

// Config parameterizes a query server. The zero value is usable: defaults
// fill in below, and a zero CacheSize simply disables the result cache.
type Config struct {
	// Shards is the number of summary-table shards; 0 selects
	// DefaultShards. The shard count never affects query answers.
	Shards int
	// CacheSize bounds the result cache in entries; 0 disables caching
	// (and with it single-flight deduplication).
	CacheSize int
	// MaxInflight bounds the number of queries computing concurrently;
	// 0 selects DefaultMaxInflight, negative disables admission control.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an inflight slot;
	// 0 selects 2×MaxInflight. Requests beyond the bound are shed with
	// 429 immediately.
	QueueDepth int
	// RequestTimeout is the per-request deadline covering queue wait and
	// computation; 0 selects DefaultRequestTimeout.
	RequestTimeout time.Duration
	// SnapshotPath, when set, is the IRX1 summary file Reload and the
	// /admin/reload route re-read.
	SnapshotPath string
	// ReadOnly marks this server as a replica's read-only view: snapshots
	// arrive only through the in-process publish path (LoadApprox from
	// the replication apply loop), and the mutating admin surface
	// (/admin/reload) answers 403 instead of swapping state underneath
	// the replicated lineage.
	ReadOnly bool
	// Registry receives the serving metrics; nil disables them.
	Registry *obs.Registry
	// Tracer, when non-nil, is stamped serve-visible after every snapshot
	// install — the terminal stage of the pipeline's end-to-end traces.
	Tracer *trace.Tracer
	// Journal, when non-nil, receives snapshot-reload and shed events.
	Journal *trace.Journal
}

// Defaults for the zero Config.
const (
	DefaultShards         = 8
	DefaultMaxInflight    = 64
	DefaultRequestTimeout = 10 * time.Second
)

// Server is the query layer: a sharded snapshot store, an optional result
// cache, and admission control, exposed as HTTP handlers.
type Server struct {
	cfg   Config
	store *store
	cache *cache   // nil when disabled
	lim   *limiter // nil when disabled
	mx    *metrics
	// genMu guards genCh, which is closed and replaced on every snapshot
	// install; WaitGeneration blocks on it.
	genMu sync.Mutex
	genCh chan struct{}
}

// New returns a query server with no snapshot loaded; every query route
// answers 503 until LoadExact, LoadApprox, or Reload installs one.
func New(cfg Config) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxInflight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	mx := newMetrics(cfg.Registry)
	s := &Server{cfg: cfg, store: newStore(cfg.Shards), mx: mx, genCh: make(chan struct{})}
	if cfg.CacheSize > 0 {
		s.cache = newCache(cfg.CacheSize, mx)
	}
	if cfg.MaxInflight > 0 {
		s.lim = newLimiter(cfg.MaxInflight, cfg.QueueDepth, mx)
	}
	// Read-time gauge: a push-style gauge would have to be updated on
	// every insert/evict/purge; the count is cheap to read on demand.
	cfg.Registry.GaugeFunc(MetricCacheEntries, "Result-cache entries currently resident.", func() int64 {
		return int64(s.cache.len())
	})
	return s
}

// Generation returns the store generation: it starts at zero and grows
// with every loaded snapshot, and response caching is keyed on it.
func (s *Server) Generation() uint64 { return s.store.generation() }

// WaitGeneration blocks until the store generation reaches at least g or
// ctx expires. It is how a caller that just handed summaries to a
// live-ingestion publisher waits for them to become queryable.
func (s *Server) WaitGeneration(ctx context.Context, g uint64) error {
	for {
		s.genMu.Lock()
		ch := s.genCh
		s.genMu.Unlock()
		if s.Generation() >= g {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// QueueDepthNow returns the number of requests currently waiting for an
// inflight slot, zero when admission control is disabled. It can never
// exceed Config.QueueDepth — requests beyond the bound are shed, not
// queued.
func (s *Server) QueueDepthNow() int64 {
	if s.lim == nil {
		return 0
	}
	return s.lim.waiting.Load()
}

// Routes returns the URL paths Register installs, the closed set an
// obs.Middleware wrapper should track individually.
func (s *Server) Routes() []string {
	return []string{"/influence", "/spread", "/topk", "/spreadby", "/spreadwindow", "/stats", "/admin/reload"}
}

// Register installs the query routes on mux. Query routes pass through
// admission control; /admin/reload does not, so operators keep control
// of an overloaded server.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/influence", s.admit(s.influence))
	mux.HandleFunc("/spread", s.admit(s.spread))
	mux.HandleFunc("/topk", s.admit(s.topk))
	mux.HandleFunc("/spreadby", s.admit(s.spreadBy))
	mux.HandleFunc("/spreadwindow", s.admit(s.spreadWindow))
	mux.HandleFunc("/stats", s.admit(s.stats))
	mux.HandleFunc("/admin/reload", s.reload)
}

// Handler returns the standalone handler: the registered routes wrapped
// in obs.Middleware over the configured registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return obs.Middleware(s.cfg.Registry, s.Routes(), mux)
}

// requestError is an application error with the HTTP status it deserves.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badParam(format string, args ...any) error {
	return &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

var errNoSnapshot = &requestError{status: http.StatusServiceUnavailable, msg: "no snapshot loaded"}

// admit wraps a query handler with the per-request deadline and the
// concurrency limiter, shedding with 429 (queue full) or 503 (deadline
// spent in queue) before the handler runs.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if s.lim != nil {
			if err := s.lim.acquire(ctx); err != nil {
				s.shed(w, err)
				return
			}
			defer s.lim.release()
		}
		h(w, r)
	}
}

// shed writes the load-shedding response for a limiter error, with a
// Retry-After hint so well-behaved clients back off.
func (s *Server) shed(w http.ResponseWriter, err error) {
	status := http.StatusServiceUnavailable
	cause := "deadline"
	if errors.Is(err, errQueueFull) {
		status = http.StatusTooManyRequests
		cause = "queue_full"
	}
	s.cfg.Journal.Record(trace.EventShed, cause, 0, map[string]any{
		"queued": s.QueueDepthNow(),
	})
	w.Header().Set("Retry-After", "1")
	writeError(w, &requestError{status: status, msg: err.Error()})
}

// answer runs the cached-query protocol: resolve the current generation,
// look the canonical key up in the cache (computing once under
// single-flight on a miss), and write the stored bytes. With the cache
// disabled it computes directly — the bytes are identical either way.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, key string, compute func() (any, error)) {
	render := func() ([]byte, error) {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return marshalBody(v)
	}
	var (
		body []byte
		err  error
	)
	if s.cache != nil {
		body, err = s.cache.do(r.Context(), key, render)
	} else {
		body, err = render()
	}
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (s *Server) influence(w http.ResponseWriter, r *http.Request) {
	snap := s.store.current()
	if snap == nil {
		writeError(w, errNoSnapshot)
		return
	}
	u, err := parseNode(r.URL.Query().Get("node"), snap.numNodes)
	if err != nil {
		writeError(w, err)
		return
	}
	key := cacheKey("influence", snap.gen, nil, int64(u))
	s.answer(w, r, key, func() (any, error) {
		return influenceBody{Influence: s.store.influence(u), Node: u}, nil
	})
}

func (s *Server) spread(w http.ResponseWriter, r *http.Request) {
	snap := s.store.current()
	if snap == nil {
		writeError(w, errNoSnapshot)
		return
	}
	seeds, err := parseSeeds(r.URL.Query().Get("seeds"), snap.numNodes)
	if err != nil {
		writeError(w, err)
		return
	}
	key := cacheKey("spread", snap.gen, seeds)
	s.answer(w, r, key, func() (any, error) {
		return spreadBody{Seeds: seeds, Spread: s.store.spread(seeds)}, nil
	})
}

func (s *Server) topk(w http.ResponseWriter, r *http.Request) {
	snap := s.store.current()
	if snap == nil {
		writeError(w, errNoSnapshot)
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 || k > snap.numNodes {
		writeError(w, badParam("bad k parameter"))
		return
	}
	key := cacheKey("topk", snap.gen, nil, int64(k))
	s.answer(w, r, key, func() (any, error) {
		seeds := snap.greedy.TopK(k)
		return spreadBody{Seeds: seeds, Spread: s.store.spread(seeds)}, nil
	})
}

func (s *Server) spreadBy(w http.ResponseWriter, r *http.Request) {
	snap := s.store.current()
	if snap == nil {
		writeError(w, errNoSnapshot)
		return
	}
	q := r.URL.Query()
	seeds, err := parseSeeds(q.Get("seeds"), snap.numNodes)
	if err != nil {
		writeError(w, err)
		return
	}
	deadline, err := strconv.ParseInt(q.Get("deadline"), 10, 64)
	if err != nil {
		writeError(w, badParam("bad deadline parameter"))
		return
	}
	key := cacheKey("spreadby", snap.gen, seeds, deadline)
	s.answer(w, r, key, func() (any, error) {
		return spreadByBody{Deadline: deadline, Seeds: seeds, Spread: snap.spreadBy(seeds, graph.Time(deadline))}, nil
	})
}

// errWindowNeedsApprox is the /spreadwindow answer on an exact snapshot:
// the request is well-formed but conflicts with the loaded summary kind.
var errWindowNeedsApprox = &requestError{
	status: http.StatusConflict,
	msg:    "window queries require an approx snapshot",
}

// spreadWindow answers the jumping/sliding-window spread: the estimated
// number of distinct nodes first influenced by the seed set inside
// [at, at+horizon−1], with horizon defaulting to the snapshot's omega
// (so a bare at gives one jumping-window position). Only approx
// snapshots retain the versioned sketches this needs; on an exact
// snapshot the route answers 409 Conflict.
func (s *Server) spreadWindow(w http.ResponseWriter, r *http.Request) {
	snap := s.store.current()
	if snap == nil {
		writeError(w, errNoSnapshot)
		return
	}
	q := r.URL.Query()
	seeds, err := parseSeeds(q.Get("seeds"), snap.numNodes)
	if err != nil {
		writeError(w, err)
		return
	}
	at, err := strconv.ParseInt(q.Get("at"), 10, 64)
	if err != nil {
		writeError(w, badParam("bad at parameter"))
		return
	}
	horizon := snap.omega()
	if raw := q.Get("horizon"); raw != "" {
		horizon, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || horizon < 1 {
			writeError(w, badParam("bad horizon parameter"))
			return
		}
	}
	key := cacheKey("spreadwindow", snap.gen, seeds, at, horizon)
	s.answer(w, r, key, func() (any, error) {
		spread, ok := snap.spreadWindow(seeds, at, horizon)
		if !ok {
			return nil, errWindowNeedsApprox
		}
		return spreadWindowBody{At: at, Horizon: horizon, Seeds: seeds, Spread: spread}, nil
	})
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	snap := s.store.current()
	if snap == nil {
		writeError(w, errNoSnapshot)
		return
	}
	body, err := marshalBody(snap.statsBody())
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// reload re-reads the configured snapshot file and swaps it in. Exposed
// as POST /admin/reload; the same Reload method backs SIGHUP handling.
func (s *Server) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &requestError{status: http.StatusMethodNotAllowed, msg: "POST required"})
		return
	}
	if s.cfg.ReadOnly {
		writeError(w, &requestError{status: http.StatusForbidden, msg: "read-only replica: snapshots arrive via replication"})
		return
	}
	if err := s.Reload(); err != nil {
		writeError(w, &requestError{status: http.StatusConflict, msg: err.Error()})
		return
	}
	body, err := marshalBody(map[string]any{"reloaded": s.cfg.SnapshotPath, "generation": s.Generation()})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// parseNode resolves a node-id parameter: 400 when malformed, 404 when
// well-formed but outside the snapshot.
func parseNode(raw string, numNodes int) (graph.NodeID, error) {
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badParam("bad node id %q", raw)
	}
	if id < 0 || id >= numNodes {
		return 0, &requestError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown node %q", raw)}
	}
	return graph.NodeID(id), nil
}

// parseSeeds resolves a comma-separated seeds parameter into the
// canonical (sorted, deduplicated) seed set. Responses echo this
// canonical set, so equivalent queries share one cache entry and one
// body.
func parseSeeds(raw string, numNodes int) ([]graph.NodeID, error) {
	if raw == "" {
		return nil, badParam("missing seeds parameter")
	}
	parts := strings.Split(raw, ",")
	seeds := make([]graph.NodeID, 0, len(parts))
	for _, part := range parts {
		id, err := parseNode(strings.TrimSpace(part), numNodes)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, id)
	}
	slices.Sort(seeds)
	dedup := seeds[:1]
	for _, u := range seeds[1:] {
		if u != dedup[len(dedup)-1] {
			dedup = append(dedup, u)
		}
	}
	return dedup, nil
}

// cacheKey renders a result-cache key: route, generation, the canonical
// seed set when the route takes one, then the integer parameters, all
// '|'-separated.
func cacheKey(route string, gen uint64, seeds []graph.NodeID, params ...int64) string {
	var buf [64]byte
	b := append(buf[:0], route...)
	b = append(b, '|')
	b = strconv.AppendUint(b, gen, 10)
	if seeds != nil {
		b = append(b, '|')
		for i, u := range seeds {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(u), 10)
		}
	}
	for _, p := range params {
		b = append(b, '|')
		b = strconv.AppendInt(b, p, 10)
	}
	return string(b)
}

// Response bodies. Field order is alphabetical, the order json.Marshal
// gives map keys, so a body's bytes do not depend on how it is built.
type (
	influenceBody struct {
		Influence float64      `json:"influence"`
		Node      graph.NodeID `json:"node"`
	}
	spreadBody struct {
		Seeds  []graph.NodeID `json:"seeds"`
		Spread float64        `json:"spread"`
	}
	spreadByBody struct {
		Deadline int64          `json:"deadline"`
		Seeds    []graph.NodeID `json:"seeds"`
		Spread   float64        `json:"spread"`
	}
	spreadWindowBody struct {
		At      int64          `json:"at"`
		Horizon int64          `json:"horizon"`
		Seeds   []graph.NodeID `json:"seeds"`
		Spread  float64        `json:"spread"`
	}
)

// marshalBody renders a response value exactly as json.Encoder would
// (trailing newline included), the byte shape both the cold and the
// cached path serve.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// writeError writes a JSON error body with the status carried by err
// (500 for plain errors).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var re *requestError
	if errors.As(err, &re) {
		status = re.status
	} else if errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "status": status})
}
