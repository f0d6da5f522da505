package core

import (
	"container/heap"
	"sort"
	"sync"

	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/obs"
	"ipin/internal/par"
)

// This file implements influence maximization on top of the IRS state:
// the paper's Algorithm 4 (greedy marginal gain with a sorted-size early
// exit) and, as an extension, the CELF lazy-greedy strategy of Leskovec et
// al., which the paper cites as prior art. Both strategies work over the
// exact summaries and over the sketches; the four entry points share one
// greedy core through the coverage interface.
//
// The maximization problem is NP-hard (paper Lemma 7) but the objective
// |⋃ σω(u)| is monotone and submodular (Lemma 8), so greedy achieves the
// usual (1−1/e) approximation.

// celfBatchPerWorker sizes the speculative gain-prefetch batches in
// celfTopK.
const celfBatchPerWorker = 8

// coverage tracks the running union ⋃_{u∈selected} σω(u) and answers
// marginal-gain queries against it.
type coverage interface {
	// gain returns |covered ∪ σω(u)| − |covered| (or its estimate).
	gain(u graph.NodeID) float64
	// add folds σω(u) into the covered set.
	add(u graph.NodeID)
}

// exactCoverage is the coverage over exact summaries.
type exactCoverage struct {
	s       *ExactSummaries
	covered map[graph.NodeID]struct{}
}

func newExactCoverage(s *ExactSummaries) *exactCoverage {
	return &exactCoverage{s: s, covered: make(map[graph.NodeID]struct{})}
}

func (c *exactCoverage) gain(u graph.NodeID) float64 {
	g := 0
	for v := range c.s.Phi[u] {
		if _, ok := c.covered[v]; !ok {
			g++
		}
	}
	return float64(g)
}

func (c *exactCoverage) add(u graph.NodeID) {
	for v := range c.s.Phi[u] {
		c.covered[v] = struct{}{}
	}
}

// approxCoverage is the coverage over collapsed sketches: the union is a
// plain HyperLogLog, marginal gain is the estimate of the union with the
// candidate, computed without materializing it.
type approxCoverage struct {
	collapsed []*hll.Sketch
	union     *hll.Sketch
	current   float64
}

func newApproxCoverage(collapsed []*hll.Sketch, precision int) *approxCoverage {
	return &approxCoverage{collapsed: collapsed, union: hll.MustNew(precision)}
}

func (c *approxCoverage) gain(u graph.NodeID) float64 {
	if c.collapsed[u] == nil {
		return 0
	}
	// Same-precision unions cannot fail.
	est, _ := c.union.UnionEstimate(c.collapsed[u])
	return max(est-c.current, 0)
}

func (c *approxCoverage) add(u graph.NodeID) {
	if c.collapsed[u] == nil {
		return
	}
	_ = c.union.Merge(c.collapsed[u])
	c.current = c.union.Estimate()
}

// approxSizes returns every node's estimated influence size.
func approxSizes(collapsed []*hll.Sketch) []float64 {
	size := make([]float64, len(collapsed))
	par.ForEach(Parallelism(), len(collapsed), func(u int) {
		if collapsed[u] != nil {
			size[u] = collapsed[u].Estimate()
		}
	})
	return size
}

// GreedySeq is one run of Algorithm 4 over fixed summaries, kept so
// that seed sets of any size come from a single sequence. A greedy round
// depends only on the seeds already selected, never on k, so the top-k
// seeds are the first k of the sequence: TopK extends it as far as the
// largest k asked for and answers smaller k from its prefix, each answer
// equal to a fresh selection of k seeds. A GreedySeq is safe for
// concurrent use, and does its set-up work (sizes, ordering, the noisy
// pre-pass) on the first TopK call.
type GreedySeq struct {
	mu       sync.Mutex
	n        int
	sizes    func() []float64 // run once, by the first TopK
	noisy    bool
	cov      coverage
	size     []float64
	order    []graph.NodeID
	chosen   []bool
	selected []graph.NodeID
}

func newGreedySeq(n int, sizes func() []float64, cov coverage, noisy bool) *GreedySeq {
	return &GreedySeq{n: n, sizes: sizes, cov: cov, noisy: noisy}
}

// NewExactGreedy returns the greedy sequence over exact summaries.
func NewExactGreedy(s *ExactSummaries) *GreedySeq {
	n := s.NumNodes()
	sizes := func() []float64 {
		size := make([]float64, n)
		for u := range size {
			size[u] = float64(s.IRSSize(graph.NodeID(u)))
		}
		return size
	}
	return newGreedySeq(n, sizes, newExactCoverage(s), false)
}

// Greedy returns the greedy sequence over the oracle's collapsed
// sketches, sharing them rather than collapsing again.
func (o *ApproxOracle) Greedy() *GreedySeq {
	return newGreedySeq(len(o.collapsed), func() []float64 { return approxSizes(o.collapsed) },
		newApproxCoverage(o.collapsed, o.precision), true)
}

// TopK returns the first k seeds of the sequence (all n when k > n),
// running the greedy rounds that no earlier call has. The slice is the
// caller's.
func (g *GreedySeq) TopK(k int) []graph.NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	k = min(max(k, 0), g.n)
	if g.size == nil {
		g.prepare()
	}
	if len(g.selected) < k {
		g.extend(k)
	}
	out := make([]graph.NodeID, k)
	copy(out, g.selected)
	return out
}

// prepare sorts the candidates by size and, for a noisy coverage, runs
// the first-round pre-pass described at extend.
func (g *GreedySeq) prepare() {
	g.size = g.sizes()
	g.order = make([]graph.NodeID, g.n)
	for i := range g.order {
		g.order[i] = graph.NodeID(i)
	}
	sort.SliceStable(g.order, func(i, j int) bool { return g.size[g.order[i]] > g.size[g.order[j]] })
	g.chosen = make([]bool, g.n)
	if g.noisy && g.n > 0 {
		clamped := make([]float64, g.n)
		copy(clamped, g.size)
		par.ForEach(Parallelism(), g.n, func(u int) {
			if gain := g.cov.gain(graph.NodeID(u)); gain > clamped[u] {
				clamped[u] = gain
			}
		})
		m().greedyGainEvals.Add(int64(g.n))
		g.size = clamped
		sort.SliceStable(g.order, func(i, j int) bool { return g.size[g.order[i]] > g.size[g.order[j]] })
	}
}

// extend is Algorithm 4, run until k seeds are selected. Candidates are
// scanned in descending order of their individual influence size; the
// scan stops as soon as the best marginal gain found so far is at least
// the next candidate's full size, because a marginal gain never exceeds
// the full set size. When no remaining candidate adds coverage, the
// sequence continues with the largest-size unselected nodes so callers
// always receive k seeds.
//
// The early exit is sound only while size[u] upper-bounds every marginal
// gain of u. That holds exactly for exact summaries (submodularity), but
// an estimated coverage can report a first-round gain above its own size
// estimate and the exit would then skip the true best candidate. Noisy
// coverages therefore get a pre-pass in prepare: every candidate's
// first-round gain is evaluated once (in parallel), size[] is lifted to
// the observed gains and re-sorted, making the bound consistent with the
// coverage's own estimator. Later rounds can still, in principle, see an
// estimated marginal gain above the lifted size — submodularity only
// bounds the true gains — but that residue is second-order noise on an
// estimator whose relative error is already ≈1/√β; the selection
// tolerance is pinned by TestGreedyNoisyCoverageClampsEarlyExit.
//
// The pre-pass is also where the parallelism lives: the first round is
// the only one that evaluates a gain per candidate (later rounds are
// pruned hard by the early exit), its evaluations are independent reads
// against an empty union, and each lands in its own clamped[] slot, so
// the result is bit-identical at every worker count.
func (g *GreedySeq) extend(k int) {
	mx := m()
	span := obs.NewSpan(sink(), "select/greedy")
	gainEvals := int64(0)
	for len(g.selected) < k {
		best := graph.NodeID(-1)
		bestGain := 0.0
		for _, u := range g.order {
			if g.chosen[u] {
				continue
			}
			if bestGain >= g.size[u] {
				break
			}
			gainEvals++
			mx.greedyGainEvals.Inc()
			if gain := g.cov.gain(u); gain > bestGain {
				bestGain = gain
				best = u
			}
		}
		if best < 0 {
			// Residual coverage is exhausted; fill deterministically. k ≤ n,
			// so an unselected node remains.
			for _, u := range g.order {
				if !g.chosen[u] {
					best = u
					break
				}
			}
		}
		g.chosen[best] = true
		g.cov.add(best)
		g.selected = append(g.selected, best)
		mx.greedySeeds.Inc()
		if span.Due() {
			span.Progressf("%d/%d seeds, %s gain evaluations", len(g.selected), k, obs.Count(gainEvals))
		}
	}
	span.Endf("%d seeds, %s gain evaluations", len(g.selected), obs.Count(gainEvals))
}

// TopKExact selects k seeds from exact summaries with Algorithm 4.
func TopKExact(s *ExactSummaries, k int) []graph.NodeID {
	return NewExactGreedy(s).TopK(k)
}

// TopKApprox selects seeds from sketch summaries with Algorithm 4. The
// collapse and the greedy rounds are shared across calls: each call
// answers from one greedy sequence (see GreedySeq).
func TopKApprox(s *ApproxSummaries) func(k int) []graph.NodeID {
	return NewApproxOracle(s).Greedy().TopK
}

// TopKApproxSeeds is the common single-shot form of TopKApprox.
func TopKApproxSeeds(s *ApproxSummaries, k int) []graph.NodeID {
	return TopKApprox(s)(k)
}

// celfItem is a heap entry carrying a possibly stale marginal gain.
type celfItem struct {
	node  graph.NodeID
	gain  float64
	size  float64 // individual influence size, the gain's initial value
	round int     // selection round in which gain was computed
}

type celfHeap []celfItem

func (h celfHeap) Len() int { return len(h) }

// Less imposes a total order — gain desc, then individual size desc, then
// node id asc — so the heap top is deterministic under ties. This is the
// same tie rule as greedyTopK's size-sorted first-max scan, which keeps
// the two strategies selecting identical seeds, and it makes the batched
// parallel re-evaluation below order-insensitive: re-evaluating more
// stale entries than the sequential pop order would have cannot change
// which entry ends up on top.
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].size != h[j].size {
		return h[i].size > h[j].size
	}
	return h[i].node < h[j].node
}
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(celfItem)) }
func (h *celfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// celfTopK is the lazy-greedy variant: marginal gains are kept in a
// max-heap and only re-evaluated when a stale entry reaches the top.
// Submodularity guarantees gains only shrink, so a re-evaluated top entry
// that stays on top is the true maximizer. Returns the same seed quality
// as Algorithm 4 with far fewer gain evaluations on large candidate sets.
// When more than one worker is configured, re-evaluations are prefetched:
// the top stale entries are popped together, their gains computed
// concurrently, and the entries pushed back UNCHANGED with the values
// kept in a per-round cache. The coverage is frozen between selections,
// so a cached value is exactly what an inline evaluation would return,
// and because the heap entries themselves are only updated when the
// sequential pop order demands it, the refresh history — and therefore
// every selection — is identical at any worker count, even for noisy
// estimators whose re-evaluated gains can grow. The cache is dropped at
// each selection, when the coverage advances.
func celfTopK(n, k int, size []float64, cov coverage) []graph.NodeID {
	mx := m()
	span := obs.NewSpan(sink(), "select/celf")
	gainEvals := int64(0)
	workers := Parallelism()
	batch := make([]celfItem, 0, workers*celfBatchPerWorker)
	var prefetched map[graph.NodeID]float64
	h := make(celfHeap, 0, n)
	for u := 0; u < n; u++ {
		if size[u] > 0 {
			h = append(h, celfItem{node: graph.NodeID(u), gain: size[u], size: size[u], round: -1})
		}
	}
	heap.Init(&h)
	if k > n {
		k = n
	}
	selected := make([]graph.NodeID, 0, k)
	for len(selected) < k && h.Len() > 0 {
		it := heap.Pop(&h).(celfItem)
		if it.round == len(selected) {
			cov.add(it.node)
			selected = append(selected, it.node)
			prefetched = nil // coverage advanced; cached gains are stale
			mx.celfSeeds.Inc()
			if span.Due() {
				span.Progressf("%d/%d seeds, %s gain evaluations", len(selected), k, obs.Count(gainEvals))
			}
			continue
		}
		g, ok := prefetched[it.node]
		if !ok && workers > 1 {
			// Prefetch this entry and the next stale tops concurrently;
			// push the extras back untouched.
			batch = append(batch[:0], it)
			for len(batch) < cap(batch) && h.Len() > 0 && h[0].round != len(selected) {
				batch = append(batch, heap.Pop(&h).(celfItem))
			}
			gains := par.Map(workers, len(batch), func(i int) float64 {
				return cov.gain(batch[i].node)
			})
			gainEvals += int64(len(batch))
			mx.celfGainEvals.Add(int64(len(batch)))
			if prefetched == nil {
				prefetched = make(map[graph.NodeID]float64, cap(batch))
			}
			for i, b := range batch {
				prefetched[b.node] = gains[i]
			}
			for _, b := range batch[1:] {
				heap.Push(&h, b)
			}
			g, ok = gains[0], true
		}
		if !ok {
			gainEvals++
			mx.celfGainEvals.Inc()
			g = cov.gain(it.node)
		}
		it.gain = g
		it.round = len(selected)
		heap.Push(&h, it)
	}
	// If every remaining gain was zero the heap may drain before k seeds
	// are found; fill with the largest-size unselected nodes, matching
	// greedyTopK's behaviour.
	if len(selected) < k {
		chosen := make([]bool, n)
		for _, u := range selected {
			chosen[u] = true
		}
		order := make([]graph.NodeID, n)
		for i := range order {
			order[i] = graph.NodeID(i)
		}
		sort.SliceStable(order, func(i, j int) bool { return size[order[i]] > size[order[j]] })
		for _, u := range order {
			if len(selected) >= k {
				break
			}
			if !chosen[u] {
				selected = append(selected, u)
				mx.celfSeeds.Inc()
			}
		}
	}
	span.Endf("%d seeds, %s gain evaluations", len(selected), obs.Count(gainEvals))
	return selected
}

// TopKExactCELF selects k seeds from exact summaries with lazy greedy.
func TopKExactCELF(s *ExactSummaries, k int) []graph.NodeID {
	n := s.NumNodes()
	size := make([]float64, n)
	for u := range size {
		size[u] = float64(s.IRSSize(graph.NodeID(u)))
	}
	return celfTopK(n, k, size, newExactCoverage(s))
}

// TopKApproxCELF selects k seeds from sketch summaries with lazy greedy.
func TopKApproxCELF(s *ApproxSummaries, k int) []graph.NodeID {
	o := NewApproxOracle(s)
	return celfTopK(o.NumNodes(), k, approxSizes(o.collapsed), newApproxCoverage(o.collapsed, o.precision))
}
