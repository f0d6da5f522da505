package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"ipin/internal/core"
	"ipin/internal/stream"
)

// Traced runs report every per-layer metric on every workload. A layer
// the workload's own rounds bypass is measured by one traced coverage
// round that loads it, at a quarter of the size and over this workload's
// log model: a 2-shard cluster round (bipartite copy, queries through
// the frontend) or a single-node pipeline round. Metrics the workload's
// rounds did measure keep their values.

// coverRate is the open-loop query rate of cluster coverage rounds, low
// enough that the frontend's uncached /topk does not saturate two CPUs.
const coverRate = 200

// cover runs one traced coverage round and keeps only the observations
// of metrics the run has none of yet.
func (b *bench) cover(idx int, name string, fn func(r *round) error) error {
	tmp := make(samples)
	r := &round{b: b, idx: idx, traced: true, layer: tmp}
	b.rec.setRun(r.idx, true)
	r.span = b.rec.open("cover."+name, 0)
	if err := fn(r); err != nil {
		return fmt.Errorf("coverage round %s: %w", name, err)
	}
	b.rec.close(r.span)
	for k, v := range tmp {
		if _, ok := b.layer[k]; !ok {
			b.layer[k] = v
		}
	}
	return nil
}

func coverCluster(b *bench) error {
	return b.cover(maxRounds+1, "cluster", func(r *round) error {
		return clusterRound(r, b.model, 20000/b.scale, 25000/b.scale, coverRate)
	})
}

func coverStream(b *bench) error {
	return b.cover(maxRounds+2, "stream", func(r *round) error {
		return streamRound(r, streamOpts{model: b.model, nodes: 20000 / b.scale,
			edges: 25000 / b.scale})
	})
}

func coverStreamAndCluster(b *bench) error {
	if err := coverStream(b); err != nil {
		return err
	}
	return coverCluster(b)
}

// walProbeRecords bounds the WAL replay.
const walProbeRecords = 200

// probeLayers replays the last traced round's log through the layers'
// own functions, at the shapes the live path used: WAL appends at its
// batch size with an fsync per record (the default SyncEvery), timed
// apart; chunk seals at its chunk boundaries; folds at its checkpoint
// boundaries; the final fold's encoding; the parallel scan; and the
// spread of the query mix's seed sets.
func probeLayers(b *bench) error {
	s := b.seen
	if s.log == nil {
		return fmt.Errorf("no traced pipeline round to probe")
	}
	edges := s.log.Interactions
	tmp := make(samples)
	r := &round{b: b, idx: maxRounds + 3, traced: true, layer: tmp}
	b.rec.setRun(r.idx, true)
	r.span = b.rec.open("probe", 0)
	defer b.rec.close(r.span)

	w, _, err := stream.OpenWAL(filepath.Join(b.state, "wal-probe"), stream.WALConfig{SyncEvery: -1}, nil)
	if err != nil {
		return err
	}
	step := max(int(s.walBatch), 1)
	for lo, n := 0, 0; lo < len(edges) && n < walProbeRecords; lo, n = lo+step, n+1 {
		t0 := time.Now()
		if err := w.Append(edges[lo:min(lo+step, len(edges))]); err != nil {
			return err
		}
		t1 := time.Now()
		if err := w.Sync(); err != nil {
			return err
		}
		t2 := time.Now()
		b.rec.add("stream.wal_append", r.span, t0, t1)
		b.rec.add("stream.wal_sync", r.span, t1, t2)
		tmp.add("wal_append_us", float64(t1.Sub(t0))/float64(time.Microsecond))
		tmp.add("wal_sync_ms", ms(t2.Sub(t1)))
	}
	if err := w.Close(); err != nil {
		return err
	}

	// Chunks seal every chunkEdges emitted edges and at every checkpoint,
	// which also seals the pending partial chunk.
	const chunkEdges = 16384 // stream.Config's default ChunkEdges
	inc, err := core.NewIncrementalApprox(s.omega, core.DefaultPrecision, s.log.NumNodes)
	if err != nil {
		return err
	}
	var sealD time.Duration
	var final *core.ApproxSummaries
	for lo, bi := 0, 0; lo < len(edges); {
		next := len(edges)
		if bi < len(s.boundaries) {
			next = int(s.boundaries[bi])
		}
		hi := min(lo+chunkEdges, next)
		t0 := time.Now()
		if err := inc.AppendChunk(edges[lo:hi], s.log.NumNodes); err != nil {
			return err
		}
		t1 := time.Now()
		b.rec.add("core.seal", r.span, t0, t1)
		sealD += t1.Sub(t0)
		lo = hi
		if lo == next {
			bi++
			final = inc.View().Fold()
			t2 := time.Now()
			b.rec.add("core.fold", r.span, t1, t2)
			tmp.add("fold_ms", ms(t2.Sub(t1)))
		}
	}
	tmp.add("core.seal_ns_per_edge", float64(sealD)/float64(len(edges)))
	var buf bytes.Buffer
	t0 := time.Now()
	if _, err := final.WriteTo(&buf); err != nil {
		return err
	}
	tmp.add("core.ckpt_write_ms", ms(time.Since(t0)))
	tmp.add("core.ckpt_bytes", float64(buf.Len()))

	view := inc.View()
	tmp.add("core.view_bytes_per_edge", float64(view.MemoryBytes())/float64(len(edges)))
	var sketches, entries, mem, payload float64
	for c := view.FirstChunk(); c < view.NumChunks(); c++ {
		_, locals := view.Chunk(c)
		for _, sk := range locals {
			if sk != nil {
				sketches++
				entries += float64(sk.EntryCount())
				mem += float64(sk.MemoryBytes())
				payload += float64(sk.PayloadBytes())
			}
		}
	}
	tmp.add("vhll.entries_per_sketch", entries/max(sketches, 1))
	tmp.add("vhll.mem_over_payload", mem/max(payload, 1))

	t1 := time.Now()
	if _, err := core.ComputeApproxParallel(s.log, s.omega, core.DefaultPrecision, runtime.NumCPU()); err != nil {
		return err
	}
	tmp.add("core.scan_s", time.Since(t1).Seconds())
	for _, set := range s.pool {
		t := time.Now()
		final.SpreadEstimate(set)
		tmp.add("spread_us", float64(time.Since(t))/float64(time.Microsecond))
	}

	for k, v := range tmp {
		if _, ok := b.layer[k]; !ok {
			b.layer[k] = v
		}
	}
	return nil
}
