package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the benchmark observed at a layer boundary,
// recorded from outside the program: around a call into a layer, or from
// a duration the program itself reports (a journal event).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    int    `json:"run"`    // the round (one pipeline run) it belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps every span of one benchmark run in memory and writes
// them out when the run ends. A recorder that is off records nothing,
// so untraced runs pay only the check.
type recorder struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	run   int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setRun starts round run: spans added from now on carry its id, and are
// recorded only if on.
func (r *recorder) setRun(run int, on bool) {
	r.mu.Lock()
	r.run = run
	r.mu.Unlock()
	r.on.Store(on)
}

// add records [start, end) under parent and returns the span's id (0
// when the recorder is off).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (r *recorder) open(name string, parent int) int {
	now := time.Now()
	return r.add(name, parent, now, now)
}

func (r *recorder) close(id int) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(time.Since(r.t0))
	r.mu.Unlock()
}

// durations returns the lengths of the spans named name in round run.
func (r *recorder) durations(name string, run int) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.Run == run {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover (overlapping children count once).
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids clipped to parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, lo, hi int64
	lo, hi = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return time.Duration(total + hi - lo)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
