package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// spec is the part of BENCHMARK.json the benchmark reads: the workload
// list, whose one-line "why" also carries each open-loop rate, and the
// metric names and units the output must contain.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// rates are the open-loop schedules of one workload; 0 means the
// workload has no open-loop stream of that kind (it pushes closed-loop,
// or issues no queries).
type rates struct {
	EdgesPerSec   float64
	QueriesPerSec float64
}

// BENCHMARK.json admits no keys beyond the benchmark contract's, so the
// rates live in each workload's "why" as "<n> edges/s" and
// "<n> queries/s": one place a reader and the program both read.
var (
	edgeRateRE  = regexp.MustCompile(`(\d+) edges/s`)
	queryRateRE = regexp.MustCompile(`(\d+) queries/s`)
)

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// rates returns the open-loop rates the named workload's why declares.
func (s *spec) rates(workload string) (rates, error) {
	for _, w := range s.Workloads {
		if w.Name != workload {
			continue
		}
		var r rates
		if m := edgeRateRE.FindStringSubmatch(w.Why); m != nil {
			r.EdgesPerSec, _ = strconv.ParseFloat(m[1], 64)
		}
		if m := queryRateRE.FindStringSubmatch(w.Why); m != nil {
			r.QueriesPerSec, _ = strconv.ParseFloat(m[1], 64)
		}
		return r, nil
	}
	return rates{}, fmt.Errorf("workload %q is not in the spec", workload)
}

// metrics returns the metric list a run must print: end-to-end metrics
// untraced, per-layer metrics traced.
func (s *spec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
