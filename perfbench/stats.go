package main

import (
	"sort"
	"time"
)

// samples collects per-round observations by metric name; the reported
// value is their trimmed mean (or a pooled percentile for latency lists).
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) addDurations(name string, unit time.Duration, d []time.Duration) {
	for _, x := range d {
		s.add(name, float64(x)/float64(unit))
	}
}

// percentile is the nearest-rank p-th percentile of v, 0 when empty.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := int(float64(len(s))*p/100+0.5) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// median is the midpoint of v (mean of the middle pair when even), 0
// when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of v without its highest and lowest tenth, 0
// when empty. On a shared host a CPU's speed can shift between two levels
// for a second or more, so per-round values fall into two clusters;
// unlike the median, which jumps from one cluster to the other as their
// shares cross a half, the mean moves with the shares, and the trim drops
// a disturbed round.
func trimmedMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := len(s) / 10
	return sum(s[k:len(s)-k]) / float64(len(s)-2*k)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
