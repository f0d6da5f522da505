package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ipin/internal/graph"
)

// noisyCoverage simulates an estimator whose first-round gain exceeds the
// caller-provided individual size for some nodes — the condition under
// which Algorithm 4's sorted-size early exit is unsound.
type noisyCoverage struct {
	gain1 []float64
	added []graph.NodeID
}

func (c *noisyCoverage) gain(u graph.NodeID) float64 {
	g := c.gain1[u]
	// Gains collapse after the first selection; only the first pick matters.
	for range c.added {
		g /= 16
	}
	return g
}

func (c *noisyCoverage) add(u graph.NodeID) { c.added = append(c.added, u) }

// TestGreedyNoisyCoverageClampsEarlyExit is the regression test for the
// early-exit bug: node 2's real first-round gain (20) exceeds its size
// estimate (1), so the unclamped scan evaluates node 0 (gain 10), sees
// bestGain ≥ size[1] and exits without ever evaluating node 2. With
// noisy=true the pre-pass lifts size[2] to the observed gain and node 2
// wins the first round.
func TestGreedyNoisyCoverageClampsEarlyExit(t *testing.T) {
	size := []float64{10, 5, 1}
	cov := &noisyCoverage{gain1: []float64{10, 5, 20}}
	sizes := func() []float64 { return size }
	seeds := newGreedySeq(3, sizes, cov, true).TopK(1)
	if len(seeds) != 1 || seeds[0] != 2 {
		t.Fatalf("noisy greedy selected %v, want [2]", seeds)
	}
	// Demonstrate the bug the clamp fixes: the same coverage under the
	// unclamped scan picks the wrong node. This pins the failure mode so
	// the test fails on the old behaviour.
	cov = &noisyCoverage{gain1: []float64{10, 5, 20}}
	seeds = newGreedySeq(3, sizes, cov, false).TopK(1)
	if len(seeds) != 1 || seeds[0] != 0 {
		t.Fatalf("unclamped greedy selected %v; the early-exit premise changed, revisit the clamp", seeds)
	}
}

// TestSelectionParallelismInvariant pins that the worker count never
// changes which seeds any strategy selects: the chunked greedy evaluation
// and the batched CELF re-evaluation must reproduce the sequential scan's
// choices exactly.
func TestSelectionParallelismInvariant(t *testing.T) {
	defer SetParallelism(0)
	rng := rand.New(rand.NewSource(21))
	l := randomLog(rng, 120, 900)
	const omega, k = 60, 8
	es := ComputeExact(l, omega)
	as, err := ComputeApprox(l, omega, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][]graph.NodeID {
		return [][]graph.NodeID{
			TopKExact(es, k),
			TopKApproxSeeds(as, k),
			TopKExactCELF(es, k),
			TopKApproxCELF(as, k),
		}
	}
	SetParallelism(1)
	want := run()
	for _, workers := range []int{2, 4, 7} {
		SetParallelism(workers)
		got := run()
		for s := range want {
			if !reflect.DeepEqual(want[s], got[s]) {
				t.Fatalf("workers=%d strategy %d selected %v, sequential %v", workers, s, got[s], want[s])
			}
		}
	}
}

// TestCELFMatchesGreedySeedForSeed: with the total-order heap tie rule
// (gain desc, size desc, node asc) CELF's selection is identical to the
// greedy scan's first-max rule, not merely equal in spread.
func TestCELFMatchesGreedySeedForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5; trial++ {
		l := randomLog(rng, 80, 600)
		es := ComputeExact(l, 50)
		greedy := TopKExact(es, 6)
		celf := TopKExactCELF(es, 6)
		if !reflect.DeepEqual(greedy, celf) {
			t.Fatalf("trial %d: greedy %v != celf %v", trial, greedy, celf)
		}
	}
}

// TestSpreadParallelismInvariant pins the tree-merge union in
// ApproxOracle.Spread to the sequential union — identical registers,
// hence identical estimates, for seed sets past the parallel threshold.
func TestSpreadParallelismInvariant(t *testing.T) {
	defer SetParallelism(0)
	rng := rand.New(rand.NewSource(5))
	n := 3 * spreadParallelMinSeeds
	l := randomLog(rng, n, 4000)
	as, err := ComputeApprox(l, 80, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	o := NewApproxOracle(as)
	seeds := make([]graph.NodeID, n)
	for i := range seeds {
		seeds[i] = graph.NodeID(i)
	}
	SetParallelism(1)
	want := o.Spread(seeds)
	for _, workers := range []int{2, 4} {
		SetParallelism(workers)
		if got := o.Spread(seeds); got != want {
			t.Fatalf("workers=%d: Spread = %v, sequential %v", workers, got, want)
		}
	}
}
