package main

import (
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ipin/internal/trace"
)

// pacer is an open-loop schedule: item i is due at start + i/rate,
// whether or not the system kept up with the items before it.
type pacer struct {
	start time.Time
	rate  float64
}

func (p pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
}

// spinBelow is the shortest wait worth a sleep: at edge rates the
// interval is tens of microseconds, so items due within it go out in one
// burst instead of each paying a timer wake-up.
const spinBelow = 200 * time.Microsecond

// issuer is the open-loop query stream: one goroutine sends the mix at a
// fixed rate through an in-process handler and times each request from
// its due time. Each request is served on a goroutine of its own, as
// net/http would serve it, so a slow answer holds up no later send.
type issuer struct {
	h      http.Handler
	qs     []query
	rate   float64
	window time.Duration // when > 0, the stream stops by itself this long after it started
	rec    *recorder
	parent int
	prefix string // span and route-metric prefix: "serve" or "cluster"

	mu      sync.Mutex
	latency []float64            // ms from due time to response
	late    []float64            // ms the send ran behind its due time
	route   map[string][]float64 // ms inside the handler, by route (traced rounds)
	sent    int64
	failed  int64 // non-200 answers
}

// run waits until ready returns (the first generation is installed),
// then sends until stop closes or the window has passed.
func (q *issuer) run(ready func(context.Context) error, stop <-chan struct{}) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	if ready(ctx) != nil {
		return
	}
	q.route = make(map[string][]float64)
	p := pacer{start: time.Now(), rate: q.rate}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var inflight sync.WaitGroup
	defer inflight.Wait()
	for i := 0; ; i++ {
		due := p.due(i)
		if q.window > 0 && due.Sub(p.start) >= q.window {
			return
		}
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		inflight.Add(1)
		go func(qu query) {
			defer inflight.Done()
			q.send(qu, due)
		}(q.qs[i%len(q.qs)])
	}
}

// pass sends the whole mix once, closed-loop: each request is due when
// the previous one has answered.
func (q *issuer) pass() {
	q.route = make(map[string][]float64)
	for _, qu := range q.qs {
		q.send(qu, time.Now())
	}
}

// send issues one request due at due and records its outcome.
func (q *issuer) send(qu query, due time.Time) {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, qu.target, nil)
	t0 := time.Now()
	q.h.ServeHTTP(rr, req)
	t1 := time.Now()
	traced := q.rec.add(q.prefix+".route."+qu.route, q.parent, t0, t1) != 0
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sent++
	if rr.Code != http.StatusOK {
		q.failed++
	}
	q.latency = append(q.latency, ms(t1.Sub(due)))
	q.late = append(q.late, ms(max(t0.Sub(due), 0)))
	if traced {
		q.route[qu.route] = append(q.route[qu.route], ms(t1.Sub(t0)))
	}
}

// report adds the stream's observations to the round.
func (q *issuer) report(r *round) {
	r.b.attempted += q.sent
	r.b.failed += q.failed
	r.addPercentiles("query", q.latency)
	if q.rate > 0 {
		for _, v := range q.late {
			r.addLayer("late_ms", v)
		}
	}
	for name, v := range q.route {
		for _, x := range v {
			r.addLayer(q.prefix+".route."+name+"_ms", x)
		}
	}
}

// answer returns the status and body h gives target.
func answer(h http.Handler, target string) (int, string) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	return rr.Code, rr.Body.String()
}

// sameAnswers reports the first target on which got and want differ, or
// "" when every answer matches byte for byte.
func sameAnswers(got, want http.Handler, targets []string) string {
	for _, t := range targets {
		gc, gb := answer(got, t)
		wc, wb := answer(want, t)
		if gc != wc || gb != wb {
			return t
		}
	}
	return ""
}

// journalTap receives every journal event as the JSON line the journal
// writes to its sink. The journal calls it synchronously, in event order,
// so a checkpoint event arrives after that checkpoint's publish.
type journalTap func(trace.Event)

func (t journalTap) Write(p []byte) (int, error) {
	var ev trace.Event
	if json.Unmarshal(p, &ev) == nil {
		t(ev)
	}
	return len(p), nil
}

// eventSpan records a journal event with a duration as a span ending at
// the event's stamp.
func eventSpan(rec *recorder, name string, parent int, ev trace.Event) {
	end := ev.At
	rec.add(name, parent, end.Add(-time.Duration(ev.DurationMs*float64(time.Millisecond))), end)
}

// counter reads a counter or gauge from a registry snapshot; names
// ending in "*" sum every series with that prefix.
func counter(snap map[string]any, name string) float64 {
	if p, ok := strings.CutSuffix(name, "*"); ok {
		t := 0.0
		for n := range snap {
			if strings.HasPrefix(n, p) {
				t += counter(snap, n)
			}
		}
		return t
	}
	if v, ok := snap[name].(int64); ok {
		return float64(v)
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir whose names
// match pattern ("" matches all).
func dirBytes(dir, pattern string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if pattern != "" {
			if ok, _ := filepath.Match(pattern, d.Name()); !ok {
				return nil
			}
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
