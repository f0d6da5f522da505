package obs

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// HTTP metric names produced by Middleware. Per-route series carry a
// route label (and, for requests, the status code class).
const (
	MetricHTTPRequests  = "http_requests_total"
	MetricHTTPErrors    = "http_errors_total"
	MetricHTTPInFlight  = "http_in_flight_requests"
	MetricHTTPDurations = "http_request_duration_seconds"
)

// Middleware wraps next with per-route HTTP telemetry:
//
//	http_requests_total{route,code}        requests by route and status
//	http_errors_total{route}               responses with status >= 400
//	http_in_flight_requests                gauge of running requests
//	http_request_duration_seconds{route}   latency histogram by route
//
// routes is the closed set of URL paths worth individual series; any
// other path (scrapes of bogus URLs, crawlers) is folded into
// route="other" so the metric namespace stays bounded. With a nil
// registry, Middleware returns next unchanged.
func Middleware(reg *Registry, routes []string, next http.Handler) http.Handler {
	if reg == nil {
		return next
	}
	series := make(map[string]*routeSeries, len(routes)+1)
	for _, r := range routes {
		series[r] = newRouteSeries(r)
	}
	other := newRouteSeries("other")
	inFlight := reg.Gauge(MetricHTTPInFlight, "Number of HTTP requests currently being served.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs := series[r.URL.Path]
		if rs == nil {
			rs = other
		}
		inFlight.Inc()
		defer inFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		rs.observe(reg, rec.code, time.Since(start).Seconds())
	})
}

// routeSeries caches one route's metric handles, so a request costs no
// name formatting or registry lookup. Each handle is still registered
// the first time a request needs it, so series appear in the exposition
// exactly when they would with a lookup per request.
type routeSeries struct {
	route string
	mu    sync.RWMutex
	codes map[int]*Counter
	errs  *Counter
	dur   *Histogram
}

func newRouteSeries(route string) *routeSeries {
	return &routeSeries{route: route, codes: make(map[int]*Counter)}
}

// observe records one served request.
func (rs *routeSeries) observe(reg *Registry, code int, seconds float64) {
	rs.mu.RLock()
	req, errs, dur := rs.codes[code], rs.errs, rs.dur
	rs.mu.RUnlock()
	if req == nil || dur == nil || (code >= 400 && errs == nil) {
		req, errs, dur = rs.register(reg, code)
	}
	req.Inc()
	if code >= 400 {
		errs.Inc()
	}
	dur.Observe(seconds)
}

// register creates the handles a request with this code needs, in the
// order the per-request lookups created them.
func (rs *routeSeries) register(reg *Registry, code int) (req, errs *Counter, dur *Histogram) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.codes[code] == nil {
		rs.codes[code] = reg.Counter(
			fmt.Sprintf(`%s{route=%q,code="%d"}`, MetricHTTPRequests, rs.route, code),
			"HTTP requests served, by route and status code.",
		)
	}
	if code >= 400 && rs.errs == nil {
		rs.errs = reg.Counter(
			fmt.Sprintf(`%s{route=%q}`, MetricHTTPErrors, rs.route),
			"HTTP responses with a 4xx or 5xx status, by route.",
		)
	}
	if rs.dur == nil {
		rs.dur = reg.Histogram(
			fmt.Sprintf(`%s{route=%q}`, MetricHTTPDurations, rs.route),
			"HTTP request latency in seconds, by route.",
			nil,
		)
	}
	return rs.codes[code], rs.errs, rs.dur
}

// statusRecorder captures the status code written by the handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports streaming, so
// wrapping does not break handlers (pprof's, for one) that flush.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
