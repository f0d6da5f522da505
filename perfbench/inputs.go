package main

import (
	"fmt"
	"math/rand/v2"

	"ipin/internal/gen"
	"ipin/internal/graph"
)

// makeLog generates one round's interaction log: strictly increasing
// timestamps over the given node count, ω = 1% of the span (the
// benchstream convention).
func makeLog(model gen.Model, nodes, edges int, seed uint64) (*graph.Log, int64, error) {
	l, err := gen.Generate(gen.Config{
		Name:         model.String(),
		Model:        model,
		Nodes:        nodes,
		Interactions: edges,
		SpanTicks:    int64(edges) * 4,
		Seed:         seed,
	})
	if err != nil {
		return nil, 0, err
	}
	return l, l.WindowFromPercent(1), nil
}

// roundSeed derives round r's input seed from the run seed, so one run
// averages over several inputs and the same run seed repeats them all.
func roundSeed(seed uint64, round int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9 + 1
}

// arrivalOrder permutes the log within blocks of skew+1 positions, the
// bounded out-of-order arrival cmd/gennet -stream emits. It returns the
// arrival sequence, each arrival's index in the sorted log (its emit
// index, since no edge is dropped), and the slack that admits every
// arrival.
func arrivalOrder(l *graph.Log, skew int, rng *rand.Rand) ([]graph.Interaction, []int, int64) {
	pos := make([]int, l.Len())
	for i := range pos {
		pos[i] = i
	}
	if skew > 0 {
		for lo := 0; lo < len(pos); lo += skew + 1 {
			hi := min(lo+skew+1, len(pos))
			rng.Shuffle(hi-lo, func(i, j int) { pos[lo+i], pos[lo+j] = pos[lo+j], pos[lo+i] })
		}
	}
	arrival := make([]graph.Interaction, len(pos))
	var slack int64
	maxSeen := int64(-1 << 62)
	for i, p := range pos {
		e := l.Interactions[p]
		arrival[i] = e
		slack = max(slack, maxSeen-int64(e.At))
		maxSeen = max(maxSeen, int64(e.At))
	}
	return arrival, pos, slack
}

// bipartite maps the log onto sources in the lower half of the node
// space and destinations in the upper half. Every channel then has one
// hop, so scatter-gather answers are exactly the single-node answers
// (the cluster package's identity condition).
func bipartite(l *graph.Log) *graph.Log {
	half := l.NumNodes / 2
	out := &graph.Log{NumNodes: l.NumNodes, Interactions: make([]graph.Interaction, l.Len())}
	for i, e := range l.Interactions {
		out.Interactions[i] = graph.Interaction{
			Src: graph.NodeID(int(e.Src) % half),
			Dst: graph.NodeID(half + int(e.Dst)%half),
			At:  e.At,
		}
	}
	return out
}

// query is one request of the serving mix: the route it exercises and
// the request target.
type query struct {
	route, target string
}

// topkKs are the /topk sizes of the query mix: small, so a cold answer
// is one short greedy pass. Each is cold once per generation, and three
// of them keep the cold ones above 1% of the live mix, so its p99 sits
// inside their latencies instead of on the edge between two classes.
var topkKs = []int{3, 4, 5}

// makeQueries builds the request mix a round cycles through: repeated
// /spread seed sets drawn from a small pool with a skew toward the first
// sets (so the result cache hits within a generation), /influence of
// single nodes, /spreadwindow over the pool at times inside the log, and
// /topk. The proportions are 50/25/20/5.
func makeQueries(n, numNodes int, first, last int64, rng *rand.Rand) ([]query, [][]graph.NodeID) {
	pool := make([][]graph.NodeID, 24)
	for i := range pool {
		for range 3 {
			pool[i] = append(pool[i], graph.NodeID(rng.IntN(numNodes)))
		}
	}
	seeds := func() string {
		set := pool[int(float64(len(pool))*rng.Float64()*rng.Float64())]
		return fmt.Sprintf("%d,%d,%d", set[0], set[1], set[2])
	}
	qs := make([]query, n)
	for i := range qs {
		switch x := rng.IntN(100); {
		case x < 50:
			qs[i] = query{"spread", "/spread?seeds=" + seeds()}
		case x < 75:
			qs[i] = query{"influence", fmt.Sprintf("/influence?node=%d", rng.IntN(numNodes))}
		case x < 95:
			at := first + rng.Int64N(max(last-first, 1))
			qs[i] = query{"spreadwindow", fmt.Sprintf("/spreadwindow?seeds=%s&at=%d", seeds(), at)}
		default:
			qs[i] = query{"topk", fmt.Sprintf("/topk?k=%d", topkKs[rng.IntN(len(topkKs))])}
		}
	}
	return qs, pool
}

// distinct returns each request target once, in first-seen order.
func distinct(qs []query) []string {
	seen := make(map[string]bool)
	var out []string
	for _, q := range qs {
		if !seen[q.target] {
			seen[q.target] = true
			out = append(out, q.target)
		}
	}
	return out
}
