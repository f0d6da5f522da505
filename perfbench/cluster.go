package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ipin/internal/cluster"
	"ipin/internal/gen"
	"ipin/internal/serve"
	"ipin/internal/stream"
)

const (
	// shards is the cluster round's shard count: one per CPU of the 2-CPU
	// box the benchmark was sized on.
	shards = 2
	// queryWindow is how long a cluster round's open-loop queries run
	// from the first generation every shard has published. Closed-loop
	// intake finishes long before the first checkpoint lands, so the
	// window, not the intake, sets how many queries a round measures.
	queryWindow = 2500 * time.Millisecond
)

// clusterRound is the traced coverage round of the cluster layer: a
// bipartite copy of one log pushed closed-loop through a 2-shard
// cluster.Ingester while queries run open-loop against its frontend,
// then Close and a reopen whose first Gather.Merged builds cold.
func clusterRound(r *round, model gen.Model, nodes, edges int, queryRate float64) error {
	b, rec := r.b, r.b.rec
	seed := roundSeed(b.seed, r.idx)
	rng := rand.New(rand.NewPCG(seed, 2))

	l0, omega, err := makeLog(model, nodes, edges, seed)
	if err != nil {
		return err
	}
	l := bipartite(l0)
	qs, _ := makeQueries(queryMix, l.NumNodes, int64(l.Interactions[0].At), int64(l.Interactions[l.Len()-1].At), rng)
	dir := filepath.Join(b.state, fmt.Sprintf("cluster-%d", r.idx))
	defer os.RemoveAll(dir)
	cfg := cluster.Config{Shards: shards, Dir: dir, Stream: stream.Config{
		Omega:           omega,
		NumNodes:        l.NumNodes,
		CheckpointEvery: checkpointEvery / time.Duration(b.scale),
	}}
	cl, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	fe := cluster.NewFrontend(cl.Gather()).Handler()

	qi := &issuer{h: fe, qs: qs, rate: queryRate, window: queryWindow / time.Duration(b.scale),
		rec: rec, parent: r.span, prefix: "cluster"}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qi.run(func(ctx context.Context) error { return allPublished(ctx, cl.Gather()) }, nil)
	}()

	var (
		pushT      []float64
		perShard   [shards]int64
		pushFailed int64
	)
	intake := rec.open("cluster.intake", r.span)
	for _, e := range l.Interactions {
		perShard[cl.Route(e.Src)]++
		t0 := time.Now()
		if err := cl.Push(e); err != nil {
			pushFailed++
		}
		t1 := time.Now()
		rec.add("cluster.push", intake, t0, t1)
		pushT = append(pushT, float64(t1.Sub(t0))/float64(time.Microsecond))
	}
	rec.close(intake)
	// The pipeline stays open for the query window, so the queries run
	// beside the drain.
	wg.Wait()
	if err := cl.Close(context.Background()); err != nil {
		return err
	}
	final := cl.Stats()

	cl2, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := cl2.Gather().Merged(cl2.Gather().View()); err != nil {
		return err
	}
	mergedD := time.Since(t0)
	if err := cl2.Close(context.Background()); err != nil {
		return err
	}

	n := int64(l.Len())
	b.attempted += n
	b.failed += pushFailed + final.ReorderDrops
	qi.report(r)
	for _, v := range pushT {
		r.addLayer("cluster_push_us", v)
	}
	r.addLayer("cluster.merged_ms", ms(mergedD))
	var most int64
	for _, c := range perShard {
		most = max(most, c)
	}
	r.addLayer("cluster.shard_edge_skew", float64(most*shards)/float64(n))

	// Correctness: the last generation answers the query mix exactly as a
	// single node fed the same bipartite copy.
	ref, err := reference(b, l, omega)
	if err != nil {
		return err
	}
	single := serve.New(serve.Config{})
	single.LoadApprox(ref)
	if t := sameAnswers(fe, single.Handler(), distinct(qs)); t != "" {
		r.check(false, "frontend answers "+t+" unlike the single-node reference")
	}
	r.check(final.ReorderDrops == 0, fmt.Sprintf("%d reorder drops", final.ReorderDrops))
	return nil
}

// allPublished waits until every shard has published a checkpoint, so
// queries see the whole node range.
func allPublished(ctx context.Context, g *cluster.Gather) error {
	for {
		ready := true
		for _, gen := range g.Generations() {
			ready = ready && gen > 0
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
