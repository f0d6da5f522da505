package main

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
)

// spreadBatch is how many seed-set spread estimates (5 to 25 seeds
// each) one offline round answers.
const spreadBatch = 2000

// offlineRound runs the paper's batch path over one email-model log: the
// parallel one-pass scan, greedy top-k, and a seed-set spread batch. It
// touches neither stream, serve nor disk; recovery_s and
// disk_bytes_per_edge are the IRX1 encoding of the summaries, the form a
// batch oracle is reloaded from.
func offlineRound(r *round) error {
	b, rec := r.b, r.b.rec
	seed := roundSeed(b.seed, r.idx)
	rng := rand.New(rand.NewPCG(seed, 3))

	setupStart := time.Now()
	l, omega, err := makeLog(b.model, 20000/b.scale, 200000/b.scale, seed)
	if err != nil {
		return err
	}
	batch := make([][]graph.NodeID, spreadBatch)
	for i := range batch {
		for range 5 + rng.IntN(21) {
			batch[i] = append(batch[i], graph.NodeID(rng.IntN(l.NumNodes)))
		}
	}
	setup := time.Since(setupStart)

	scanStart := time.Now()
	scan := rec.open("core.scan", r.span)
	sum, err := core.ComputeApproxParallel(l, omega, core.DefaultPrecision, runtime.NumCPU())
	if err != nil {
		return err
	}
	rec.close(scan)
	scanD := time.Since(scanStart)
	if r.idx < warmupRounds {
		b.e2e.add(heapMetric, heapMB())
	}

	// The batch's answers are the results the scan was run for: each one's
	// freshness runs from scan start to its answer.
	lat := make([]time.Duration, len(batch))
	fresh := make([]float64, len(batch))
	for i, set := range batch {
		t := time.Now()
		sum.SpreadEstimate(set)
		lat[i] = time.Since(t)
		fresh[i] = ms(time.Since(scanStart))
	}

	topk := rec.open("core.topk", r.span)
	topkMs := timeTopK(sum)
	rec.close(topk)
	seeds := core.TopKApproxSeeds(sum, topK)

	var buf bytes.Buffer
	t1 := time.Now()
	if _, err := sum.WriteTo(&buf); err != nil {
		return err
	}
	writeD := time.Since(t1)
	encoded := buf.Bytes()
	t2 := time.Now()
	if _, err := core.ReadApproxSummaries(bytes.NewReader(encoded)); err != nil {
		return err
	}
	decodeD := time.Since(t2)

	// The sequential scan is both the single-worker baseline (accept_eps)
	// and the correctness reference: it gives the same bytes and the same
	// top-k seeds.
	t3 := time.Now()
	ref, err := reference(b, l, omega)
	if err != nil {
		return err
	}
	seqD := time.Since(t3)
	r.measured = time.Since(setupStart)
	r.key = scanD
	var refBuf bytes.Buffer
	if _, err := ref.WriteTo(&refBuf); err != nil {
		return err
	}
	r.check(bytes.Equal(encoded, refBuf.Bytes()), "parallel scan differs from the sequential scan")
	r.check(slices.Equal(seeds, core.TopKApproxSeeds(ref, topK)), "top-k seeds differ between the parallel and sequential scans")

	n := float64(l.Len())
	b.attempted += int64(2 + len(batch))
	r.addE2E("setup_s", setup.Seconds())
	r.addE2E("queryable_eps", n/scanD.Seconds())
	r.addE2E("accept_eps", n/seqD.Seconds())
	r.addPercentiles("freshness", fresh)
	latMs := make([]float64, len(lat))
	for i, d := range lat {
		latMs[i] = ms(d)
	}
	r.addPercentiles("query", latMs)
	r.addE2E("recovery_s", decodeD.Seconds())
	r.addE2E("disk_bytes_per_edge", float64(len(encoded))/n)
	r.addE2E("topk_ms", topkMs)
	if r.traced {
		r.addLayer("core.scan_s", scanD.Seconds())
		r.addLayer("core.ckpt_write_ms", ms(writeD))
		r.addLayer("core.ckpt_bytes", float64(len(encoded)))
		r.layer.addDurations("spread_us", time.Microsecond, lat)
	}
	return nil
}
